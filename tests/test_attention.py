import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import dydila.numerics as numerics
import dydila.oracle as oracle
from dydila.attention import (
    _SOFTMAX_ROWS,
    AttentionStack,
    BlockDiagnostics,
    DwcParams,
    DydilaParams,
    HeadDiagnostics,
    HeadParams,
    dwc_forward,
    extract_attention_row,
    linear_attention,
    multihead_forward,
    reparam_merge,
    softmax_attention,
    stack_forward,
)
from dydila.checks import TOLERANCES
from dydila.differential import DifferentialBank
from dydila.kernels import KernelBank
from dydila.numerics import ContractViolation, ConfigError, matmul, relu, softmax_rows
from dydila.oracle import (
    explicit_dwc,
    explicit_linear_attention,
    pipeline_oracle,
)
from dydila.projection import ProjectorBank
from dydila.routing import Router

from conftest import (assert_close, bits, logits_of, make_block, mat, needs_compiler,
                      spy_logits)


class TestSoftmaxAttention:
    def test_single_token_passes_value_through(self):
        q, k, v = mat(0, 1, 4), mat(1, 1, 4), mat(2, 1, 4)
        assert np.array_equal(softmax_attention(q, k, v), v)

    def test_zero_query_averages_values(self):
        k, v = mat(3, 8, 4), mat(4, 8, 4)
        out = softmax_attention(np.zeros((2, 4)), k, v)
        assert_close(out, np.tile(v.mean(axis=0), (2, 1)), 1e-14, "uniform weights")

    def test_matches_explicit_rows(self):
        q, k, v = mat(5, 12, 6), mat(6, 12, 6), mat(7, 12, 6)
        out = softmax_attention(q, k, v)
        scale = 1.0 / np.sqrt(6)
        for i in range(12):
            weights = softmax_rows((q[i : i + 1] @ k.T) * scale)
            assert_close(out[i], (weights @ v)[0], 1e-12, f"row {i}")

    def test_shape_validation(self):
        with pytest.raises(ContractViolation):
            softmax_attention(mat(0, 4, 3), mat(0, 4, 4), mat(0, 4, 4))

    def test_zero_keys_name_the_empty_key_set(self):
        with pytest.raises(ContractViolation, match="key set is empty"):
            softmax_attention(mat(0, 4, 3), np.zeros((0, 3)), np.zeros((0, 5)))

    def test_zero_tokens_give_zero_rows(self):
        # no query rows, so there is no softmax to take; linear attention
        # returns zero rows for zero keys as well
        empty = np.zeros((0, 3))
        assert softmax_attention(empty, empty, np.zeros((0, 5))).shape == (0, 5)
        assert np.array_equal(linear_attention(mat(0, 4, 3), empty, np.zeros((0, 5))),
                              np.zeros((4, 5)))


def _softmax_rows_reference(m):
    """The unfused row softmax: a fresh array for every step."""
    shifted = m - np.max(m, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


@pytest.mark.usefixtures("backend")
class TestSoftmaxMapInPlace:
    """The map is scaled, shifted, exponentiated and normalized in the one
    array that matmul(q, k.T) returns, with no output bit moved; on both
    matmul backends."""

    @staticmethod
    def _unfused(q, k, v):
        scale = np.asarray(1.0 / np.sqrt(q.shape[1]), dtype=q.dtype)
        return matmul(_softmax_rows_reference(matmul(q, k.T) * scale), v)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("n_q,n_k,d,d_v", [
        (1, 1, 4, 4), (37, 53, 5, 11), (64, 64, 16, 16),
        (_SOFTMAX_ROWS, 53, 5, 11),  # exactly one full block of query rows
        (_SOFTMAX_ROWS + 1, 53, 5, 11),  # one full block and a one-row block
        (2 * _SOFTMAX_ROWS + 37, 53, 5, 11),  # two full blocks of query rows and a partial one
        (1061, 53, 5, 11),  # several full blocks of query rows and a partial one
    ])
    def test_bit_identical_to_unfused(self, precision, n_q, n_k, d, d_v):
        q, k = mat(20, n_q, d, precision, -3.0, 3.0), mat(21, n_k, d, precision, -3.0, 3.0)
        v = mat(22, n_k, d_v, precision)
        assert np.array_equal(bits(softmax_attention(q, k, v)), bits(self._unfused(q, k, v)))

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_dominant_logit_underflows_to_zero(self, precision):
        q, k, v = mat(23, 9, 5, precision), mat(24, 12, 5, precision), mat(25, 12, 3, precision)
        q[0], k[4] = 0.0, 0.0
        q[0, 0] = k[4, 0] = 60.0  # logit 3600/sqrt(5): every other exp in row 0 is 0
        scale = np.asarray(1.0 / np.sqrt(5), dtype=q.dtype)
        weights = _softmax_rows_reference(matmul(q, k.T) * scale)
        assert weights[0, 4] == 1.0 and np.count_nonzero(weights[0]) == 1
        out = softmax_attention(q, k, v)
        assert np.array_equal(bits(out), bits(matmul(weights, v)))
        assert np.array_equal(out[0], v[4])

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_extracted_row_is_the_unfused_row(self, precision):
        params = make_block(602, 8, (4, 6), precision=precision)
        # a query in the one block of 24 tokens, and one in the last, partial
        # block of query rows
        for n, index in ((24, 7), (2 * _SOFTMAX_ROWS + 37, 2 * _SOFTMAX_ROWS + 35)):
            x = mat(41, n, 8, precision)
            q = matmul(x, params.proj.w_q0)
            k = matmul(x, params.proj.w_k0)
            scale = np.asarray(1.0 / np.sqrt(8), dtype=q.dtype)
            want = _softmax_rows_reference(matmul(q, k.T) * scale)[index]
            row = extract_attention_row(x, params, index, impl="softmax")
            assert np.array_equal(bits(row), bits(want))

    def test_softmax_rows_leaves_its_argument_unchanged(self):
        m = mat(26, 17, 29, low=-40.0, high=40.0)
        before = m.tobytes()
        out = softmax_rows(m)
        assert m.tobytes() == before
        assert np.array_equal(bits(out), bits(_softmax_rows_reference(m)))

    @staticmethod
    def _peak_elements(n, precision, seeds):
        """tracemalloc's peak over one softmax_attention pass at n x 16, in
        elements of the precision (tracemalloc sees numpy's data buffers)."""
        q, k, v = (mat(s, n, 16, precision) for s in seeds)
        numerics.matmul_backend()  # load the kernels before tracing
        tracemalloc.start()
        try:
            softmax_attention(q, k, v)
            return tracemalloc.get_traced_memory()[1] / q.itemsize
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_one_n_by_n_buffer(self, backend, precision):
        # The unfused form holds up to four n x n arrays at once.  The numpy
        # fallback of matmul keeps one multiply buffer of up to 512 KiB (its
        # row block), a quarter of the map at n=512 in f64, so that backend
        # runs at n=1024 (four blocks of query rows), where it is at most a
        # sixteenth.
        n = 512 if backend == "c" else 1024
        peak = self._peak_elements(n, precision, (27, 28, 29))
        assert peak < 1.5 * n * n, f"peak {peak} elements at n={n}"

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_one_block_of_the_map_at_a_time(self, backend, precision):
        # Past one block of query rows a pass holds one _SOFTMAX_ROWS x n
        # block of the map, a quarter of the whole map at n=2048; the numpy
        # fallback's multiply buffer fits under the bound too.
        n = 2048
        peak = self._peak_elements(n, precision, (33, 34, 35))
        assert peak < 1.5 * _SOFTMAX_ROWS * n, f"peak {peak} elements at n={n}"


class TestLinearAttention:
    def test_single_token_passes_value_through(self):
        q = np.abs(mat(8, 1, 4)) + 0.1  # keep the feature row live
        k, v = np.abs(mat(9, 1, 4)) + 0.1, mat(10, 1, 4)
        assert_close(linear_attention(q, k, v), v, 1e-12, "n=1 cancellation")

    @pytest.mark.parametrize("kernel,gamma", [("relu", None), ("focused", 3.0)])
    def test_matches_explicit_map(self, kernel, gamma):
        for seed in range(3):
            q, k, v = mat(seed, 24, 8), mat(seed + 1, 24, 8), mat(seed + 2, 24, 8)
            want = explicit_linear_attention(q, k, v, kernel=kernel, gamma=gamma)
            got = linear_attention(q, k, v, gamma=gamma)
            assert_close(got, want, 1e-10, f"{kernel} linear attention")

    def test_identical_keys_average_values(self):
        q = np.abs(mat(11, 6, 4)) + 0.1
        k = np.tile(np.abs(mat(12, 1, 4)) + 0.1, (6, 1))
        v = mat(13, 6, 4)
        out = linear_attention(q, k, v)
        assert_close(out, np.tile(v.mean(axis=0), (6, 1)), 1e-12, "identical keys")

    def test_dead_query_row_yields_zero_row(self):
        q = np.abs(mat(14, 4, 4)) + 0.1
        q[2] = -1.0  # relu kills the whole feature row
        k, v = np.abs(mat(15, 4, 4)) + 0.1, mat(16, 4, 4)
        out = linear_attention(q, k, v)
        assert np.array_equal(out[2], np.zeros(4))


class TestDwc:
    def test_center_delta_kernel_is_identity(self):
        v = mat(17, 24, 5)
        kernels = np.zeros((5, 3, 3))
        kernels[:, 1, 1] = 1.0
        out = dwc_forward(v, (4, 6), DwcParams(kernels=kernels, identity_branch=False))
        assert np.array_equal(out, v)

    def test_zero_kernel_identity_branch_is_identity(self):
        v = mat(18, 24, 5)
        out = dwc_forward(v, (4, 6), DwcParams(kernels=np.zeros((5, 3, 3)), identity_branch=True))
        assert np.array_equal(out, v)

    def test_hand_sum_kernel(self):
        # all-ones kernel sums the 3x3 in-bounds neighborhood (zero padding)
        v = np.array([[1.0], [2.0], [3.0], [4.0]])  # grid 2x2: [[1,2],[3,4]]
        dwc = DwcParams(kernels=np.ones((1, 3, 3)), identity_branch=False)
        out = dwc_forward(v, (2, 2), dwc)
        assert np.array_equal(out[:, 0], [10.0, 10.0, 10.0, 10.0])

    def test_matches_loop_oracle_bitwise(self):
        v = mat(19, 48, 6)
        dwc = DwcParams(kernels=mat(20, 6, 9).reshape(6, 3, 3), identity_branch=True)
        want = explicit_dwc(v, (6, 8), dwc.kernels, identity_branch=True)
        assert np.array_equal(dwc_forward(v, (6, 8), dwc), want)

    def test_reparam_merge_equivalence(self):
        v = mat(21, 64, 32)
        dwc = DwcParams(kernels=mat(22, 32, 9).reshape(32, 3, 3), identity_branch=True)
        merged = reparam_merge(dwc)
        branch = dwc_forward(v, (8, 8), dwc)
        fused = dwc_forward(v, (8, 8), merged)
        assert_close(fused, branch, 1e-12, "merged == branch + identity")

    def test_merged_kernel_center_tap(self):
        dwc = DwcParams(kernels=np.zeros((3, 3, 3)), identity_branch=True)
        merged = reparam_merge(dwc)
        assert np.array_equal(merged.merged[:, 1, 1], [1.0, 1.0, 1.0])
        no_branch = reparam_merge(DwcParams(kernels=np.ones((2, 3, 3)), identity_branch=False))
        assert np.array_equal(no_branch.merged, no_branch.kernels)

    def test_merged_kernel_runs_when_present(self):
        # bit for bit the merged kernel alone, whose bits differ from the
        # branch kernel plus the identity
        v = mat(27, 64, 32)
        merged = reparam_merge(DwcParams(kernels=mat(28, 32, 9).reshape(32, 3, 3),
                                         identity_branch=True))
        want = explicit_dwc(v, (8, 8), merged.merged, identity_branch=False)
        assert np.array_equal(bits(dwc_forward(v, (8, 8), merged)), bits(want))
        branch = explicit_dwc(v, (8, 8), merged.kernels, identity_branch=True)
        assert not np.array_equal(bits(branch), bits(want))

    def test_grid_mismatch(self):
        dwc = DwcParams(kernels=np.zeros((2, 3, 3)), identity_branch=True)
        with pytest.raises(ContractViolation, match="tile"):
            dwc_forward(mat(0, 5, 2), (2, 2), dwc)


@pytest.mark.parametrize("grid", [(1, 1), (1, 7), (7, 1), (5, 3), (64, 64)])
@pytest.mark.parametrize("d", [1, 5, 65, 384])
@pytest.mark.parametrize("mode", ["identity", "no_identity", "merged"])
def test_compiled_dwc_matches_fallback_and_oracle(grid, d, mode):
    # the compiled DWC against its numpy fallback (f64 and f32) and the loop
    # oracle (f64; skipped at 64x64 for d above 5, 2.4M Python steps and
    # more), on v in C order and as a column slice
    needs_compiler()
    h, w = grid
    for precision in ("f64", "f32"):
        base = DwcParams(kernels=mat(d, d, 9, precision).reshape(d, 3, 3),
                         identity_branch=mode != "no_identity")
        params = reparam_merge(base) if mode == "merged" else base
        kernels = params.merged if mode == "merged" else params.kernels
        wide = mat(h + d, h * w, d + 3, precision)
        for v in (np.ascontiguousarray(wide[:, 2:2 + d]), wide[:, 2:2 + d]):
            got = dwc_forward(v, grid, params)
            want = numerics._dwc_numpy(v, grid, kernels, mode == "identity")
            assert np.array_equal(bits(got), bits(want)), (precision, v.flags.c_contiguous)
            if precision == "f64" and h * w * d <= 64 * 64 * 5:
                with mock.patch.object(oracle, "ORACLE_CAP", h * w):
                    want = explicit_dwc(v, grid, kernels, mode == "identity")
                assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_compiled_dwc_inf_weight_gives_the_fallback_nans(precision):
    # a tap outside the grid adds +0 * weight on both backends, so an inf
    # weight turns the border it reaches into the same NaNs
    needs_compiler()
    kernels = mat(31, 4, 9, precision).reshape(4, 3, 3)
    kernels[1, 0, 0], kernels[3, 2, 1] = np.inf, -np.inf
    v = mat(32, 20, 4, precision)
    with np.errstate(invalid="ignore"):
        got = dwc_forward(v, (5, 4), DwcParams(kernels=kernels))
        want = numerics._dwc_numpy(v, (5, 4), kernels, True)
    assert np.array_equal(bits(got), bits(want))
    img = got.reshape(5, 4, 4)
    assert np.isnan(img[0, :, 1]).all() and np.isnan(img[:, 0, 1]).all()
    assert np.isnan(img[4, :, 3]).all() and not np.isnan(img[1:4, 1:, 1]).any()


def _degenerate_block(d, seed):
    """Single projector/factor banks, gamma=1, lambda=0, no dwc."""
    from conftest import make_proj_bank, make_kernel_bank, make_diff_bank

    kb = make_kernel_bank(seed + 2, d, [1.0])
    return DydilaParams(
        proj=make_proj_bank(seed + 1, d, 1),
        head_params=(
            HeadParams(kernel_q=kb, kernel_k=kb, kernel_qp=kb, kernel_kp=kb,
                       diff=make_diff_bank(seed + 3, d, [0.0])),
        ),
        grid=(4, 6),
        dwc=None,
    )


class TestDydilaForward:
    def test_full_degeneration_to_relu_linear_numerator(self):
        x = mat(23, 24, 8)
        params = _degenerate_block(8, 100)
        out, _ = multihead_forward(x, params)
        q = matmul(x, params.proj.w_q0)
        k = matmul(x, params.proj.w_k0)
        v = matmul(x, params.proj.w_v0)
        assert_close(out, matmul(relu(q), matmul(relu(k).T, v)), 1e-12, "degeneration")

    def test_value_passthrough_when_differential_cancels(self):
        # routed projector == shared projector and lambda == 1 zero the TDO;
        # an identity DWC then reproduces V exactly.
        from conftest import make_kernel_bank, make_diff_bank
        d = 6
        rngmat = mat(24, d, d)
        w_k0 = mat(25, d, d)
        w_v0 = mat(26, d, d)
        proj = ProjectorBank(
            w_q0=rngmat, w_k0=w_k0, w_v0=w_v0,
            w_q=(rngmat,), w_k=(w_k0,),
            router_q=Router(mat(27, d, 1)), router_k=Router(mat(28, d, 1)),
        )
        kb = make_kernel_bank(29, d, [3.0])
        params = DydilaParams(
            proj=proj,
            head_params=(HeadParams(kernel_q=kb, kernel_k=kb, kernel_qp=kb, kernel_kp=kb,
                                    diff=make_diff_bank(30, d, [1.0])),),
            grid=(4, 6),
            dwc=DwcParams(kernels=np.zeros((d, 3, 3)), identity_branch=True),
        )
        x = mat(31, 24, d)
        out, _ = multihead_forward(x, params)
        assert np.array_equal(out, matmul(x, w_v0))

    @pytest.mark.parametrize("variant", ["token-wise", "map-wise"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_composed_oracle(self, variant, normalize):
        params = make_block(200, 8, (4, 6), variant=variant, normalize=normalize)
        x = mat(32, 24, 8)
        out, _ = multihead_forward(x, params)
        assert_close(out, pipeline_oracle(x, params), 1e-10,
                     f"{variant} normalize={normalize}")

    def test_diagnostics_routes_cover_all_tokens(self):
        # a head records exactly the lambdas its variant routes
        x = mat(33, 24, 8)
        for variant, names in (("token-wise", ["q", "k"]), ("map-wise", ["map"])):
            params = make_block(201, 8, (4, 6), variant=variant)
            _, diag = multihead_forward(x, params)
            assert diag.routes_proj_q.indices.shape == (24,)
            head = diag.heads[0]
            assert list(head.lambdas) == names
            for values, routes in head.lambdas.values():
                assert values.shape == (24,) and routes.indices.shape == (24,)
            assert list(diag.lambda_means()) == names
            assert head.routes_kernel_q.indices.shape == (24,)

    def test_lambda_means_are_correctly_rounded(self):
        # 1e16 + 1 rounds back to 1e16, so np.mean over these reads 0.25
        heads = [HeadDiagnostics(None, None, None, None, {"map": (np.array(vals), None)})
                 for vals in ([1e16, 1.0], [-1e16, 1.0])]
        assert BlockDiagnostics(None, None, heads).lambda_means() == {"map": 0.5}

    def test_grid_must_tile_input_when_dwc_on(self):
        params = make_block(203, 8, (4, 6))
        with pytest.raises(ContractViolation, match="tile"):
            multihead_forward(mat(0, 20, 8), params)


# Every (variant, normalize) a block can run.
_VARIANT_CASES = [(variant, normalize) for variant in ("token-wise", "map-wise")
                  for normalize in (False, True)]


class TestMultihead:
    def test_single_head_is_byte_identical_to_dydila(self):
        # one head through the multi-head path is the DyDiLA pipeline
        # composed from its public stages, for either variant
        from dydila.differential import tdo_forward
        from dydila.kernels import dmk_forward
        from dydila.projection import dpm_forward

        x = mat(34, 24, 8)
        for variant, normalize in _VARIANT_CASES:
            params = make_block(300, 8, (4, 6), variant=variant, normalize=normalize)
            out, _ = multihead_forward(x, params)
            q, k, v, qp, kp, _, _ = dpm_forward(x, params.proj)
            hp = params.head_params[0]
            q_t, k_t, qp_t, kp_t = (dmk_forward(z, bank)[0] for z, bank in (
                (q, hp.kernel_q), (k, hp.kernel_k), (qp, hp.kernel_qp), (kp, hp.kernel_kp)))
            head = tdo_forward(q_t, qp_t, k_t, kp_t, v, hp.diff, normalize, variant)[0]
            want = head + dwc_forward(v, (4, 6), params.dwc)
            assert out.tobytes() == want.tobytes(), (variant, normalize)

    @pytest.mark.parametrize("heads", [2, 4])
    def test_matches_per_head_loop(self, heads):
        from dydila.differential import tdo_forward
        from dydila.kernels import dmk_forward
        from dydila.projection import dpm_forward

        d = 8
        x = mat(35, 24, d)
        d_h = d // heads
        for variant, normalize in _VARIANT_CASES:
            params = make_block(301 + heads, d, (4, 6), heads=heads, variant=variant,
                                normalize=normalize)
            out, diag = multihead_forward(x, params)
            assert len(diag.heads) == heads

            q, k, v, qp, kp, _, _ = dpm_forward(x, params.proj)
            pieces = []
            for h in range(heads):
                sl = slice(h * d_h, (h + 1) * d_h)
                hp = params.head_params[h]
                q_t, _ = dmk_forward(q[:, sl], hp.kernel_q)
                k_t, _ = dmk_forward(k[:, sl], hp.kernel_k)
                qp_t, _ = dmk_forward(qp[:, sl], hp.kernel_qp)
                kp_t, _ = dmk_forward(kp[:, sl], hp.kernel_kp)
                pieces.append(tdo_forward(q_t, qp_t, k_t, kp_t, v[:, sl], hp.diff, normalize,
                                          variant)[0])
            want = np.hstack(pieces) + dwc_forward(v, (4, 6), params.dwc)
            assert np.array_equal(bits(out), bits(want)), (variant, normalize)

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("variant", ["token-wise", "map-wise"])
    def test_zero_tokens_give_an_empty_output(self, variant, heads):
        # as softmax_attention and linear_attention do for no tokens
        params = make_block(330 + heads, 8, (4, 6), heads=heads, dwc=False, variant=variant)
        out, diag = multihead_forward(np.zeros((0, 8)), params)
        assert out.shape == (0, 8) and len(diag.heads) == heads

    @pytest.mark.parametrize("heads", [1, 2])
    def test_kernel_routes_read_the_raw_projections(self, monkeypatch, heads):
        # each stream is routed before it is mapped in place: the recorded
        # routes, and the logits they were chosen from, are those of
        # dmk_forward on the raw head slices
        from dydila.kernels import dmk_forward
        from dydila.projection import dpm_forward

        log = spy_logits(monkeypatch)
        d = 8
        params = make_block(320 + heads, d, (4, 6), heads=heads)
        x = mat(36, 24, d)
        _, diag = multihead_forward(x, params)
        q, k, _, qp, kp, _, _ = dpm_forward(x, params.proj)
        d_h = d // heads
        for h, (hp, head) in enumerate(zip(params.head_params, diag.heads)):
            sl = slice(h * d_h, (h + 1) * d_h)
            for raw, bank, got in ((q, hp.kernel_q, head.routes_kernel_q),
                                   (k, hp.kernel_k, head.routes_kernel_k),
                                   (qp, hp.kernel_qp, head.routes_kernel_qp),
                                   (kp, hp.kernel_kp, head.routes_kernel_kp)):
                _, want = dmk_forward(raw[:, sl], bank)
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(bits(logits_of(log, got)), bits(logits_of(log, want)))

    def test_head_count_must_divide_dim(self):
        with pytest.raises(ConfigError, match="divisible"):
            make_block(310, 6, (2, 2), heads=4)

    def test_head_dim_checked_against_banks(self):
        good = make_block(311, 8, (4, 6), heads=2)
        with pytest.raises(ConfigError, match="head 0 dim"):
            DydilaParams(
                proj=good.proj,
                head_params=(make_block(312, 8, (4, 6)).head_params[0],) * 2,
                grid=(4, 6),
            )


# (impl, variant) of every attention row; the map-wise dydila row's id is "mapwise"
ROW_CASES = [pytest.param("dydila", "token-wise", id="dydila"),
             pytest.param("dydila", "map-wise", id="mapwise"),
             *(pytest.param(impl, "token-wise", id=impl)
               for impl in ("softmax", "linear", "focused"))]


class TestStagesThroughPublicBindings:
    """The block reaches each stage through the public function that the
    tests hold against the oracles, looked up at the calling module's
    binding."""

    @staticmethod
    def _spy(monkeypatch, module, name, log):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            log.append((name, args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_kernel_map_maps_each_head_slice_in_place(self, monkeypatch, heads):
        import dydila.attention

        d = 8
        block = make_block(330 + heads, d, (4, 6), heads=heads)
        log = []
        self._spy(monkeypatch, dydila.attention, "dmk_forward", log)
        stack_forward(mat(47, 24, d), AttentionStack(blocks=(block, block)))
        assert len(log) == 2 * 4 * heads
        # keys first: every head's K and K' slices, then every head's Q and Q'
        banks = ([bank for hp in block.head_params for bank in (hp.kernel_k, hp.kernel_kp)]
                 + [bank for hp in block.head_params for bank in (hp.kernel_q, hp.kernel_qp)])
        for (_, (z, bank), kwargs), want in zip(log, banks * 2):
            assert bank is want
            assert kwargs["out"] is z and z.shape == (24, d // heads) and z.base is not None

    def test_softmax_normalizes_the_map_in_place(self, monkeypatch):
        import dydila.attention

        # one in-place call per block of query rows; the last block is partial
        full = _SOFTMAX_ROWS
        for n_q, blocks in ((9, (9,)), (2 * full + 37, (full, full, 37))):
            log = []
            self._spy(monkeypatch, dydila.attention, "softmax_rows", log)
            q, k, v = mat(48, n_q, 5), mat(49, 12, 5), mat(50, 12, 3)
            softmax_attention(q, k, v)
            monkeypatch.undo()
            assert len(log) == len(blocks)
            for (_, (m,), kwargs), rows in zip(log, blocks):
                assert kwargs["out"] is m and m.shape == (rows, 12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_route_pair_resumes_its_logits_through_matmul(self, monkeypatch, heads):
        import dydila.differential
        import dydila.routing

        log = []
        self._spy(monkeypatch, dydila.differential, "route_pair", log)
        self._spy(monkeypatch, dydila.routing, "matmul", log)
        multihead_forward(mat(51, 24, 8), make_block(340 + heads, 8, (4, 6), heads=heads))
        pairs = [i for i, (name, _, _) in enumerate(log) if name == "route_pair"]
        assert len(pairs) == 2 * heads
        for i in pairs:
            (_, _, kw1), (_, _, kw2) = log[i + 1], log[i + 2]
            assert "start" not in kw1 and kw2["start"] is not None
        assert sum("start" in kwargs for _, _, kwargs in log) == 2 * heads

    def _calls(self, monkeypatch, run):
        import dydila.attention

        log = []
        for name in ("dpm_keys", "dpm_values", "_key_half", "dwc_forward", "dpm_queries",
                     "_query_half"):
            self._spy(monkeypatch, dydila.attention, name, log)
        run()
        monkeypatch.undo()
        return log

    @pytest.mark.parametrize("dwc", [True, False])
    @pytest.mark.parametrize("variant", ["token-wise", "map-wise"])
    def test_query_side_is_projected_after_every_key_half_and_the_dwc(self, monkeypatch,
                                                                       variant, dwc):
        # K, K' and V are spent before Q and Q' exist, and each head writes
        # its output over its own Q slice
        heads = 2
        block = make_block(350, 8, (4, 6), heads=heads, dwc=dwc, variant=variant)
        log = self._calls(monkeypatch, lambda: multihead_forward(mat(52, 24, 8), block))
        assert [name for name, _, _ in log] == [
            "dpm_keys", "dpm_values", *["_key_half"] * heads, *["dwc_forward"] * dwc,
            "dpm_queries", *["_query_half"] * heads]
        for _, (q_t, *rest), _ in log[-heads:]:
            assert rest[-1] is q_t

    @pytest.mark.parametrize("impl, variant", ROW_CASES)
    def test_attention_row_projects_only_its_query_row(self, monkeypatch, impl, variant):
        # routing, the routed projection and matmul are row-local, so the
        # query side of one row needs that row of x and nothing more
        import dydila.attention
        import dydila.projection

        block, x, index = make_block(351, 8, (4, 6), heads=2, variant=variant), mat(53, 24, 8), 5
        log = []
        self._spy(monkeypatch, dydila.attention, "dpm_queries", log)
        for module in (dydila.attention, dydila.projection):
            self._spy(monkeypatch, module, "matmul", log)
        extract_attention_row(x, block, index, impl, head=1)
        monkeypatch.undo()
        query_weights = (block.proj.w_q0, *block.proj.w_q)
        products = [a for name, (a, b), _ in log
                    if name == "matmul" and any(b is w for w in query_weights)]
        if impl == "dydila":
            (rows, _), = [args for name, args, _ in log if name == "dpm_queries"]
            assert rows.shape == (1, 8) and np.array_equal(bits(rows), bits(x[index:index + 1]))
            assert len(products) == 2  # the shared Q and the one routed Q' projector
        else:
            assert len(products) == 1  # the shared Q only
            assert np.array_equal(bits(products[0]), bits(x[index:index + 1]))
        assert all(a.shape[0] == 1 for a in products)

    @pytest.mark.parametrize("impl, variant", ROW_CASES)
    def test_attention_row_projects_no_v(self, monkeypatch, impl, variant):
        # a row of the map never reads V; the block projects it once
        import dydila.attention
        import dydila.differential
        import dydila.projection
        import dydila.routing

        block, x = make_block(352, 8, (4, 6), heads=2, variant=variant), mat(54, 24, 8)
        for run, want in ((lambda: extract_attention_row(x, block, 5, impl, head=1), 0),
                          (lambda: multihead_forward(x, block), 1)):
            log = []
            for module in (dydila.attention, dydila.differential, dydila.projection,
                           dydila.routing):
                self._spy(monkeypatch, module, "matmul", log)
            run()
            monkeypatch.undo()
            assert sum(args[1] is block.proj.w_v0 for _, args, _ in log) == want


class TestStack:
    def test_single_block_residual(self):
        params = make_block(400, 8, (4, 6))
        x = mat(36, 24, 8)
        block_out, _ = multihead_forward(x, params)
        out, diags = stack_forward(x, AttentionStack(blocks=(params,)))
        assert np.array_equal(out, x + block_out)
        assert len(diags) == 1

    def test_diagnostics_keep_one_value_per_token(self):
        # a stack keeps every block's diagnostics: each routing's winners
        # and each routed lambda, never an n x choices array such as logits
        n, d, heads = 24, 12, 3
        block = make_block(405, d, (4, 6), heads=heads)
        _, diags = stack_forward(mat(37, n, d), AttentionStack(blocks=(block, block)))
        arrays = []

        def walk(obj):
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    walk(getattr(obj, f.name))
            elif isinstance(obj, (list, tuple, dict)):
                for item in obj.values() if isinstance(obj, dict) else obj:
                    walk(item)

        walk(diags)
        # per block: two projection routes; per head four kernel routes and
        # lambda_q and lambda_k, each values and routes
        assert len(arrays) == 2 * (2 + heads * (4 + 2 * 2))
        assert all(a.shape == (n,) for a in arrays), [a.shape for a in arrays]

    def test_zero_parameters_make_identity_map(self):
        d = 6
        zeros = np.zeros((d, d))
        proj = ProjectorBank(
            w_q0=zeros, w_k0=zeros, w_v0=zeros, w_q=(zeros,), w_k=(zeros,),
            router_q=Router(np.zeros((d, 1))), router_k=Router(np.zeros((d, 1))),
        )
        kb = KernelBank(gammas=(1.0,), router=Router(np.zeros((d, 1))))
        diff = DifferentialBank(
            lambdas=(0.0,),
            router_q=Router(np.zeros((2 * d, 1))),
            router_k=Router(np.zeros((2 * d, 1))),
            lambda_map_router=Router(np.zeros((2 * d, 1))),
        )
        block = DydilaParams(
            proj=proj,
            head_params=(HeadParams(kernel_q=kb, kernel_k=kb, kernel_qp=kb, kernel_kp=kb,
                                    diff=diff),),
            grid=(2, 3),
            dwc=DwcParams(kernels=np.zeros((d, 3, 3)), identity_branch=True),
        )
        x = mat(37, 6, d)
        out, _ = stack_forward(x, AttentionStack(blocks=(block, block)))
        assert np.array_equal(out, x)

    def test_depth_nine_smoke(self):
        blocks = tuple(make_block(500 + b, 8, (8, 8), normalize=True) for b in range(9))
        x = mat(38, 64, 8)
        out, diags = stack_forward(x, AttentionStack(blocks=blocks))
        assert out.shape == (64, 8)
        assert np.all(np.isfinite(out))
        assert len(diags) == 9

    def test_blocks_must_agree(self):
        with pytest.raises(ConfigError, match="differ"):
            AttentionStack(blocks=(make_block(0, 8, (4, 6)), make_block(1, 8, (2, 2))))


class TestExtractAttentionRow:
    def test_softmax_row_sums_to_one_and_reproduces_output(self):
        params = make_block(600, 8, (4, 6))
        x = mat(39, 24, 8)
        row = extract_attention_row(x, params, 5, impl="softmax")
        assert abs(row.sum() - 1.0) <= 1e-12
        q = matmul(x, params.proj.w_q0)
        k = matmul(x, params.proj.w_k0)
        v = matmul(x, params.proj.w_v0)
        assert_close(row @ v, softmax_attention(q, k, v)[5], 1e-12, "row dot v")

    @pytest.mark.parametrize("impl", ["linear", "focused"])
    def test_kernel_rows_reproduce_output(self, impl):
        params = make_block(601, 8, (4, 6), gammas=(3.0, 3.0, 3.0))
        x = mat(40, 24, 8)
        q = matmul(x, params.proj.w_q0)
        k = matmul(x, params.proj.w_k0)
        v = matmul(x, params.proj.w_v0)
        want = linear_attention(q, k, v, gamma=3.0 if impl == "focused" else None)
        for i in (0, 7, 23):
            row = extract_attention_row(x, params, i, impl=impl)
            assert_close(row @ v, want[i], 1e-10, f"{impl} row {i}")

    def test_focused_row_takes_head_0s_gamma(self):
        # the baselines are single-head over the full width, as bench runs
        # them: every head's row is head 0's, whatever head 1's gammas are
        params = make_block(606, 8, (4, 6), heads=2, gammas=(3.0, 3.0, 3.0))
        head0, head1 = params.head_params
        other = KernelBank(gammas=(0.5, 0.5, 0.5), router=head1.kernel_q.router)
        params = dataclasses.replace(
            params, head_params=(head0, dataclasses.replace(head1, kernel_q=other)))
        x = mat(46, 24, 8)
        q, k, v = (matmul(x, w) for w in (params.proj.w_q0, params.proj.w_k0, params.proj.w_v0))
        want = linear_attention(q, k, v, gamma=3.0)
        for i in (0, 7, 23):
            row = extract_attention_row(x, params, i, impl="focused", head=1)
            assert np.array_equal(bits(row),
                                  bits(extract_attention_row(x, params, i, impl="focused")))
            assert_close(row @ v, want[i], 1e-10, f"focused row {i}")

    @pytest.mark.parametrize("heads,normalize,head", [
        (1, False, 0), (1, True, 0),
        (2, False, 0), (2, False, 1), (2, True, 0), (2, True, 1),
    ])
    def test_dydila_row_reproduces_head_output(self, heads, normalize, head):
        params = make_block(602, 8, (4, 6), heads=heads, dwc=False, normalize=normalize)
        x = mat(41, 24, 8)
        out, _ = multihead_forward(x, params)
        cols = slice(head * 8 // heads, (head + 1) * 8 // heads)
        v = matmul(x, params.proj.w_v0)[:, cols]
        for i in (0, 11, 23):
            row = extract_attention_row(x, params, i, impl="dydila", head=head)
            assert_close(row @ v, out[i, cols], 1e-12, f"dydila head {head} row {i}")

    @pytest.mark.parametrize("heads,normalize,head", [
        (1, False, 0), (1, True, 0),
        (2, False, 0), (2, False, 1), (2, True, 0), (2, True, 1),
    ])
    def test_mapwise_row_reproduces_head_output_per_head(self, heads, normalize, head):
        params = make_block(605, 8, (4, 6), heads=heads, dwc=False, variant="map-wise",
                            normalize=normalize)
        x = mat(45, 24, 8)
        out, _ = multihead_forward(x, params)
        cols = slice(head * 8 // heads, (head + 1) * 8 // heads)
        v = matmul(x, params.proj.w_v0)[:, cols]
        for i in (0, 11, 23):
            row = extract_attention_row(x, params, i, impl="dydila", head=head)
            assert_close(row @ v, out[i, cols], 1e-12, f"mapwise head {head} row {i}")

    def test_mapwise_row_reproduces_head_output(self):
        params = make_block(603, 8, (4, 6), dwc=False, variant="map-wise")
        x = mat(42, 24, 8)
        out, _ = multihead_forward(x, params)
        v = matmul(x, params.proj.w_v0)
        row = extract_attention_row(x, params, 3, impl="dydila")
        assert_close(row @ v, out[3], 1e-12, "mapwise row")

    def test_bounds_and_impl_validation(self):
        params = make_block(604, 8, (4, 6))
        x = mat(43, 24, 8)
        with pytest.raises(ContractViolation, match="out of range"):
            extract_attention_row(x, params, 24)
        with pytest.raises(ContractViolation, match="head"):
            extract_attention_row(x, params, 0, head=1)
        # the variant is the block's; "mapwise" is no impl
        for impl in ("exact", "mapwise"):
            with pytest.raises(ConfigError, match="impl"):
                extract_attention_row(x, params, 0, impl=impl)


class TestBlockWorkingSet:
    """A block pass peaks at about three n x d arrays: Q, Q' and the DWC.
    It projects only the key side first (K', then K and V), and every head
    reduces its K and K' slices, with its V slice, to a d_h x d_h key state.
    K and K' are released, the DWC reads V and V is released, and only then
    is the query side projected.  Each head writes its output over its own
    spent Q slice, so the block allocates no head or block output apart
    from Q.  Map-wise also holds one d_h-wide shared map per head while it
    forms its difference."""

    # Measured (d=128, 64x64 grid, heads 1 and 2, DWC on and off): token-wise
    # 3.08-3.21 n x d arrays on the compiled backend and 3.71-3.82 on the
    # numpy one, whose focused map works in row blocks and whose matmul keeps
    # a multiply buffer; map-wise up to 4.16 and 4.41 (one head with DWC,
    # where the shared map is d wide).  Each bound is the maximum plus about
    # 0.3.
    BOUND = {("token-wise", "c"): 3.5, ("token-wise", "numpy"): 4.1,
             ("map-wise", "c"): 4.45, ("map-wise", "numpy"): 4.7}

    @staticmethod
    def _peak_arrays(heads, dwc, variant):
        # tracemalloc sees numpy's data buffers
        params = make_block(606, 128, (64, 64), heads=heads, dwc=dwc, normalize=True,
                            variant=variant)
        x = mat(46, 64 * 64, 128)
        numerics.matmul_backend()  # load the kernels before tracing
        tracemalloc.start()
        try:
            multihead_forward(x, params)
            return tracemalloc.get_traced_memory()[1] / x.nbytes
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("dwc", [True, False])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_peak_is_about_three_n_by_d_arrays(self, backend, heads, dwc):
        arrays = self._peak_arrays(heads, dwc, "token-wise")
        assert arrays <= self.BOUND["token-wise", backend], arrays

    @pytest.mark.parametrize("dwc", [True, False])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_mapwise_peak_is_bounded_alike(self, backend, heads, dwc):
        arrays = self._peak_arrays(heads, dwc, "map-wise")
        assert arrays <= self.BOUND["map-wise", backend], arrays


class TestPermutationEquivariance:
    @pytest.mark.parametrize("variant", ["token-wise", "map-wise"])
    def test_block_without_dwc(self, variant):
        params = make_block(700, 8, (8, 8), dwc=False, variant=variant)
        x = mat(44, 64, 8)
        out, diag = multihead_forward(x, params)
        gen = np.random.Generator(np.random.PCG64(45))
        for _ in range(5):
            perm = gen.permutation(64)
            out_p, diag_p = multihead_forward(x[perm], params)
            assert np.array_equal(diag.routes_proj_q.indices[perm],
                                  diag_p.routes_proj_q.indices)
            assert np.array_equal(diag.heads[0].routes_kernel_q.indices[perm],
                                  diag_p.heads[0].routes_kernel_q.indices)
            assert_close(out_p, out[perm], 1e-12, "permuted block")


# Edge shapes of one block: (d, grid, make_block overrides).
_EDGE_CASES = {
    "n1": (8, (1, 1), {"heads": 2}),
    "grid_1xn": (8, (1, 7), {}),
    "grid_nx1": (8, (7, 1), {}),
    "d_h1_heads_d": (4, (3, 3), {"heads": 4}),
    "one_member_banks": (8, (3, 4), {"n_p": 1, "gammas": (3.0,), "lambdas": (0.1,)}),
    "f32_gamma8": (8, (4, 4), {"heads": 2, "gammas": (8.0,), "precision": "f32"}),
}


class TestEdgeShapesVsOracle:
    """One block on edge shapes against pipeline_oracle, at the README's
    composed-pipeline tolerance for the block's precision."""

    @pytest.mark.parametrize("variant", ["token-wise", "map-wise"])
    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    def test_block_matches_oracle(self, case, variant):
        d, grid, overrides = _EDGE_CASES[case]
        precision = overrides.get("precision", "f64")
        params = make_block(900 + sorted(_EDGE_CASES).index(case), d, grid, variant=variant,
                            normalize=True, **overrides)
        x = mat(901, grid[0] * grid[1], d, precision)
        out, _ = multihead_forward(x, params)
        assert out.dtype == x.dtype and np.all(np.isfinite(out))
        assert_close(out, pipeline_oracle(x, params), TOLERANCES[precision]["composed"],
                     f"{case} {variant}")
