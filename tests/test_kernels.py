import numpy as np
import pytest

import dydila.numerics as numerics
from dydila.kernels import KernelBank, dmk_forward, focused_rows
from dydila.numerics import PRECISIONS, ContractViolation, ConfigError, relu, row_l2_norm
from dydila.oracle import naive_focused_row, per_token_kernel
from dydila.routing import Router

from conftest import assert_close, bits, make_kernel_bank, mat, needs_compiler

_GAMMAS = (0.5, 1.0, 1.7, 3.0, 8.0)
_F32_TOL = 1e-5  # README tolerance table: focused map vs oracle, f32


def _oracle_rows(z, gamma):
    """naive_focused_row over the rows of z, row i with gamma[i]."""
    return np.stack([naive_focused_row(z[i], gamma[i]) for i in range(z.shape[0])])


def _awkward(seed, n, d, precision="f64"):
    """Seeded rows with dead rows, zero and -0 entries, one row of equal
    entries and one of huge magnitudes, and a gamma per row from _GAMMAS."""
    z = mat(seed, n, d, precision)
    z[1] = -np.abs(z[1])
    z[2] = 0.0
    z[3, ::2] = -0.0
    z[4] = 0.25
    z[5] *= 1e30 if precision == "f64" else 1e15
    gamma = np.resize(np.array(_GAMMAS), n)
    np.random.default_rng(seed).shuffle(gamma)
    return z, gamma


class TestFocusedKernel:
    def test_gamma_one_is_exact_relu(self):
        row = np.array([[3.0, 4.0]])
        assert np.array_equal(focused_rows(row, 1.0), [[3.0, 4.0]])
        z = mat(0, 50, 8)
        assert np.array_equal(focused_rows(z, 1.0), relu(z))

    def test_hand_value_gamma_three(self):
        # relu([3,4])^3 = [27,64]; restored to norm 5: 5/sqrt(27^2+64^2) * [27,64]
        want = np.array([[27.0, 64.0]]) * (5.0 / np.sqrt(27.0**2 + 64.0**2))
        assert_close(focused_rows(np.array([[3.0, 4.0]]), 3.0), want, 1e-14, "gamma=3 example")

    def test_all_negative_row_maps_to_zero(self):
        out = focused_rows(np.array([[-1.0, -2.0, 0.0]]), 3.0)
        assert np.array_equal(out, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0, 8.0])
    def test_norm_preserved(self, gamma):
        z = mat(1, 200, 32)
        z[:9] = -np.abs(z[:9])  # dead rows
        out = focused_rows(z, gamma)
        n_in, n_out = row_l2_norm(relu(z)), row_l2_norm(out)
        alive = n_in > 0
        rel = np.abs(n_out[alive] - n_in[alive]) / n_in[alive]
        assert np.max(rel) <= 1e-12
        assert np.all(out[~alive] == 0.0)

    def test_nonnegative_output(self):
        out = focused_rows(mat(2, 64, 16), 3.0)
        assert np.all(out >= 0.0)

    def test_matches_naive_form(self):
        z = mat(3, 40, 12)
        for gamma in (0.5, 2.0, 3.0, 8.0):
            want = np.stack([naive_focused_row(z[i], gamma) for i in range(40)])
            assert np.array_equal(bits(focused_rows(z, gamma)), bits(want)), gamma

    def test_matches_textbook_form(self):
        # r**g * (||r|| / ||r**g||) with no max rescale: an arithmetically
        # independent form, so a defect the kernel and the oracle share shows
        z = mat(3, 40, 12)
        z[:4] = -np.abs(z[:4])  # dead rows
        r = relu(z)
        n1 = np.sqrt(np.sum(r * r, axis=1, keepdims=True))
        for gamma in (0.5, 2.0, 3.0, 8.0):
            rg = r**gamma
            ng = np.sqrt(np.sum(rg * rg, axis=1, keepdims=True))
            want = np.where(n1 > 0, rg * (n1 / np.where(ng > 0, ng, 1.0)), 0.0)
            assert_close(focused_rows(z, gamma), want, 1e-13, f"kernel gamma={gamma}")
            oracle = np.stack([naive_focused_row(z[i], gamma) for i in range(40)])
            assert_close(oracle, want, 1e-13, f"oracle gamma={gamma}")

    def test_sharpening_monotone_in_gamma(self):
        # larger gamma puts strictly more of the row mass on the peak entry
        gen = np.random.Generator(np.random.PCG64(4))
        rows = gen.uniform(0.1, 1.0, size=(20, 16))
        prev = None
        for gamma in (1.0, 2.0, 3.0, 8.0):
            out = focused_rows(rows, gamma)
            ratio = out.max(axis=1) / out.sum(axis=1)
            if prev is not None:
                assert np.all(ratio > prev)
            prev = ratio

    def test_large_magnitudes_do_not_overflow_f32(self):
        # naive relu^8 on entries ~1e5 would overflow f32; the scaled power must not
        z = (mat(5, 16, 8, "f32") * np.float32(1e5)).astype(np.float32)
        out = focused_rows(z, 8.0)
        assert np.all(np.isfinite(out))
        n_in, n_out = row_l2_norm(relu(z)), row_l2_norm(out)
        alive = n_in > 0
        assert np.max(np.abs(n_out[alive] - n_in[alive]) / n_in[alive]) <= 1e-5

    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigError, match="gamma"):
            focused_rows(mat(0, 2, 2), 0.0)


class TestDmkForward:
    def test_single_factor_gamma_one_is_relu(self):
        z = mat(6, 30, 8)
        bank = make_kernel_bank(7, 8, [1.0])
        out, routes = dmk_forward(z, bank)
        assert np.array_equal(out, relu(z))
        assert routes.indices.tolist() == [0] * 30

    def test_equal_gammas_make_routing_irrelevant(self):
        z = mat(8, 30, 8)
        bank = make_kernel_bank(9, 8, [3.0, 3.0, 3.0, 3.0])
        out, routes = dmk_forward(z, bank)
        assert np.array_equal(out, focused_rows(z, 3.0))
        assert routes.n_choices == 4

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_token_oracle(self, seed):
        z = mat(seed, 40, 8)
        bank = make_kernel_bank(seed + 60, 8, [0.5, 1.0, 3.0, 8.0])
        out, routes = dmk_forward(z, bank)
        want, idx = per_token_kernel(z, bank)
        assert np.array_equal(routes.indices, idx)
        assert np.array_equal(bits(out), bits(want))

    def test_row_locality(self):
        z = mat(10, 20, 8)
        bank = make_kernel_bank(11, 8, [0.5, 3.0])
        base, _ = dmk_forward(z, bank)
        poked = z.copy()
        poked[4] *= 5.0
        after, _ = dmk_forward(poked, bank)
        mask = np.arange(20) != 4
        assert np.array_equal(after[mask], base[mask])

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_arguments_keep_their_bytes(self, precision):
        wide = mat(12, 30, 24, precision)
        bank = make_kernel_bank(13, 8, _GAMMAS, precision)
        before = wide.tobytes()
        dmk_forward(wide[:, 8:16], bank)
        focused_rows(wide[:, 8:16], 3.0)
        focused_rows(wide, 1.0)
        assert wide.tobytes() == before

    def test_bank_validation(self):
        with pytest.raises(ConfigError, match="gamma"):
            KernelBank(gammas=(1.0, -2.0), router=Router(np.zeros((4, 2))))
        with pytest.raises(ConfigError, match="choices"):
            KernelBank(gammas=(1.0, 2.0), router=Router(np.zeros((4, 3))))


class TestFocusedMap:
    """The focused map's order contract on the numpy fallback;
    TestFocusedMapCompiled reruns every test here on the compiled kernel."""

    @pytest.fixture(autouse=True)
    def backend(self, monkeypatch):
        monkeypatch.setattr(numerics, "_c_kernels", {})

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_exact_vs_oracle(self, seed):
        z, gamma = _awkward(seed, 40, 13)
        assert np.array_equal(bits(numerics._focused_map(z, gamma)), bits(_oracle_rows(z, gamma)))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_gamma_one_rows_are_relu(self, precision):
        z, gamma = _awkward(3, 40, 13, precision)
        out = numerics._focused_map(z, gamma)
        ones = gamma == 1.0
        assert ones.any() and np.array_equal(bits(out[ones]), bits(relu(z)[ones]))
        assert np.array_equal(bits(focused_rows(z, 1.0)), bits(relu(z)))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_dmk_forward_equals_focused_rows_per_group(self, precision):
        z = mat(4, 60, 8, precision)
        bank = make_kernel_bank(5, 8, _GAMMAS, precision)
        out, routes = dmk_forward(z, bank)
        assert len(set(routes.indices.tolist())) > 2
        for f, gamma in enumerate(bank.gammas):
            rows = routes.indices == f
            assert np.array_equal(bits(out[rows]), bits(focused_rows(z[rows], gamma))), gamma

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("heads", [2, 6])
    def test_strided_head_slices(self, precision, heads):
        z, gamma = _awkward(6, 30, 12, precision)
        d_h = 12 // heads
        for h in range(heads):
            view = z[:, h * d_h:(h + 1) * d_h]
            got = numerics._focused_map(view, gamma)
            assert np.array_equal(bits(got), bits(numerics._focused_map(view.copy(), gamma)))
            if precision == "f64":
                assert np.array_equal(bits(got), bits(_oracle_rows(view, gamma)))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("shape", [(0, 5), (1, 5), (7, 1), (1, 1)])
    def test_edge_shapes(self, precision, shape):
        z = mat(7, *shape, precision)
        gamma = np.resize(np.array(_GAMMAS), shape[0])
        out = numerics._focused_map(z, gamma)
        assert out.shape == shape and out.dtype == z.dtype
        want = _oracle_rows(z, gamma) if shape[0] else np.zeros(shape)
        if precision == "f64":
            assert np.array_equal(bits(out), bits(want))
        else:
            assert_close(out, want, _F32_TOL, f"f32 {shape}")
        if shape[1] == 1:
            # one live entry powers to 1 and is rescaled to its own norm
            assert np.array_equal(out, relu(z))

    @pytest.mark.parametrize("seed", range(3))
    def test_f32_within_tolerance_of_oracle(self, seed):
        z, gamma = _awkward(seed, 40, 13, "f32")
        out, want = numerics._focused_map(z, gamma), _oracle_rows(z, gamma)
        for i in range(40):
            assert_close(out[i], want[i], _F32_TOL, f"row {i} gamma={gamma[i]}")

    def test_f32_gamma_eight_stays_finite(self):
        z = mat(8, 200, 16, "f32", low=-1e4, high=1e4)
        z[::7] *= np.float32(1e-15)
        out = focused_rows(z, 8.0)
        assert np.all(np.isfinite(out))
        want = _oracle_rows(z, np.full(200, 8.0))
        for i in range(200):
            assert_close(out[i], want[i], _F32_TOL, f"row {i}")

    def test_f32_tiny_rows_keep_their_scale(self):
        # both norms are summed over r / peak and rescaled by peak, so rows
        # whose squares would be subnormal or zero in f32 are not dead
        z = np.float32([[3e-23, 4e-23, -1]])
        assert_close(focused_rows(z, 3.0), _oracle_rows(z, [3.0]), _F32_TOL, "3e-23 row")
        tiny = (mat(11, 6, 1000, "f32") * np.float32(1e-30)).astype(np.float32)
        out = focused_rows(tiny, 3.0)
        assert out.any(axis=1).all()
        want = _oracle_rows(tiny, np.full(6, 3.0))
        for i in range(6):
            assert_close(out[i], want[i], _F32_TOL, f"row {i} scaled by 1e-30")

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_entries_that_underflow_against_the_peak_stay_zero(self, precision):
        # r / peak rounds to 0 for a nonzero r: its power is +0, as pow(0, g) is
        dt = np.dtype(PRECISIONS[precision])
        tiny = np.finfo(dt).smallest_subnormal
        z = np.array([[tiny, 1e10, 0.0, 1.0]], dtype=dt)
        out = focused_rows(z, 3.0)
        assert out[0, 0] == 0 and not np.signbit(out[0, 0])
        want = _oracle_rows(z, [3.0])
        if precision == "f64":
            assert np.array_equal(bits(out), bits(want))
        else:
            assert_close(out, want, _F32_TOL, "f32")

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_inf_peak(self, precision, gamma):
        # gamma = 1 keeps relu; otherwise inf / inf makes n1, and so the row, NaN
        z = np.array([[1.0, np.inf, 2.0, -1.0], [np.inf, np.inf, 0.0, 0.0]],
                     dtype=PRECISIONS[precision])
        out = focused_rows(z, gamma)
        if gamma == 1.0:
            assert np.array_equal(out, relu(z))
        else:
            assert np.isnan(out).all()
            assert np.isnan(naive_focused_row(z[0], gamma)).all()

    def test_one_gamma_per_row(self):
        with pytest.raises(ContractViolation, match="gammas for 4 rows"):
            numerics._focused_map(mat(10, 4, 3), np.full(3, 2.0))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("heads", [1, 3, 6])
    def test_in_place_on_strided_head_slices(self, precision, heads):
        # every head slice of a wider array mapped in place: the fresh map's
        # bits, with NaN, all-<=0 and gamma-1 rows, and no other column moved
        z, gamma = _awkward(14, 30, 12, precision)
        z[6, 1] = z[7, 9] = np.nan
        z[8] = -np.abs(z[8])
        assert (gamma == 1.0).any()
        wide = np.concatenate([mat(15, 30, 5, precision), z, mat(16, 30, 3, precision)], axis=1)
        d_h = 12 // heads
        for h in range(heads):
            cols = slice(5 + h * d_h, 5 + (h + 1) * d_h)
            want = wide.copy()
            want[:, cols] = numerics._focused_map(wide[:, cols].copy(), gamma)
            view = wide[:, cols]
            assert numerics._focused_map(view, gamma, out=view) is view
            assert np.array_equal(bits(wide), bits(want)), h

    def test_out_is_validated(self):
        # out is None or z itself: any other array is refused, whatever its
        # shape, and so is z when it is read-only
        z, gamma = mat(18, 4, 3), np.full(4, 2.0)
        for out in (np.empty((4, 3)), np.empty((4, 4)), np.empty((4, 3), dtype=np.float32),
                    np.empty((4, 3))[:0], z[:]):
            with pytest.raises(ContractViolation, match="focused map out"):
                numerics._focused_map(z, gamma, out=out)
        frozen = np.empty((4, 3))
        frozen.flags.writeable = False
        with pytest.raises(ContractViolation, match="focused map out"):
            numerics._focused_map(z, gamma, out=frozen)
        # an out that overlaps z without being z: reversed columns, and a
        # view one row further along z's own buffer
        buffer = mat(18, 5, 3)
        for out in (buffer[:4, ::-1], buffer[1:]):
            with pytest.raises(ContractViolation, match="focused map out"):
                numerics._focused_map(buffer[:4], gamma, out=out)
        z.flags.writeable = False
        with pytest.raises(ContractViolation, match="focused map out"):
            numerics._focused_map(z, gamma, out=z)

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_nan_row_stays_non_finite(self, gamma):
        # a NaN row is not a dead row: it must not come out as zeros
        z = mat(9, 12, 6)
        z[4, 2] = np.nan
        z[7] = -np.abs(z[7])
        z[7, 3] = np.nan  # NaN in a row whose other entries are all dead
        clean = z.copy()
        clean[[4, 7]] = 1.0
        out = focused_rows(z, gamma)
        others = np.ones(12, dtype=bool)
        others[[4, 7]] = False
        for row in (4, 7):
            assert not np.isfinite(out[row]).all(), row
            assert not np.isfinite(naive_focused_row(z[row], gamma)).all(), row
        assert np.array_equal(bits(out[others]), bits(focused_rows(clean, gamma)[others]))
        assert focused_rows(np.array([[1.0, np.nan, 2.0]]), gamma)[0, 1] != 0.0


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_numpy_fallback_row_blocks_keep_the_bits(monkeypatch, precision):
    # the fallback maps blocks of rows; the map is row-local, so any block
    # size gives the bits of one block, in place or not
    monkeypatch.setattr(numerics, "_c_kernels", {})
    z, gamma = _awkward(19, 45, 13, precision)
    whole = numerics._focused_numpy(z, gamma)
    for entries in (1, 13, 50, 10**6):
        monkeypatch.setattr(numerics, "_FOCUSED_NUMPY_ENTRIES", entries)
        assert np.array_equal(bits(numerics._focused_map(z, gamma)), bits(whole)), entries
        inplace = z.copy()
        numerics._focused_map(inplace, gamma, out=inplace)
        assert np.array_equal(bits(inplace), bits(whole)), entries


class TestFocusedMapCompiled(TestFocusedMap):
    """Every TestFocusedMap case again on the compiled kernel, plus bit
    equality with the numpy fallback, which covers f32."""

    @pytest.fixture(autouse=True)
    def backend(self):
        needs_compiler()

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_numpy_fallback(self, precision, seed):
        z, gamma = _awkward(seed, 70, 33, precision)
        wide = np.zeros((70, 99), dtype=z.dtype)
        wide[:, 33:66] = z
        for name, view in [("c_order", z), ("f_order", np.asfortranarray(z)),
                           ("head_slice", wide[:, 33:66]),
                           ("column_stride", np.repeat(z, 3, axis=1)[:, ::3])]:
            got = numerics._focused_map(view, gamma)
            assert np.array_equal(bits(got), bits(numerics._focused_numpy(view, gamma))), name

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_row_groups_and_list_padding(self, precision):
        # each pow list is padded to a multiple of eight; every width around
        # that edge, at each row count up to nine, with a dead row among rows
        # that cycle through the test gammas (1 included), keeps the
        # fallback's bits
        for n in range(1, 10):
            for d in (1, 7, 8, 9, 17):
                z, gamma = mat(n * d, n, d, precision), np.resize(np.array(_GAMMAS), n)
                z[n // 2] = -np.abs(z[n // 2])
                got = numerics._focused_map(z, gamma)
                assert np.array_equal(bits(got), bits(numerics._focused_numpy(z, gamma))), (n, d)
