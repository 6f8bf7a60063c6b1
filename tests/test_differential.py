import numpy as np
import pytest

from dydila.differential import (
    DENOM_FLOOR,
    DifferentialBank,
    _floor_denominator,
    _key_half,
    _key_state,
    _query_half,
    expand_tokenwise,
    tdo_forward,
)
from dydila.numerics import ContractViolation, ConfigError, matmul
from dydila.oracle import explicit_mapwise, explicit_tdo, per_token_lambdas
from dydila.routing import Router

from conftest import assert_close, make_diff_bank, mat


def _denominator(q, k):
    """Each row's floored normalizing denominator ``q @ sum(k)``."""
    return _floor_denominator(matmul(q, matmul(np.ones((1, k.shape[0])), k).T))


def _streams(seed, n, d):
    return tuple(mat(seed + i, n, d) for i in range(5))  # q_t, qp_t, k_t, kp_t, v


def _routed_lambdas(q_t, qp_t, k_t, kp_t, bank):
    """The per-token ``(lambda_q, lambda_k)`` that tdo_forward routes and returns."""
    v = np.zeros((q_t.shape[0], 1), dtype=q_t.dtype)
    _, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank)
    return lambdas["q"][0], lambdas["k"][0]


def _oracle_lambdas(q_t, qp_t, k_t, kp_t, bank):
    """Per-token ``(lambda_q, lambda_k)`` from the routing oracle on the concatenated pairs."""
    return (per_token_lambdas(np.hstack((q_t, qp_t)), bank.router_q, bank.lambdas),
            per_token_lambdas(np.hstack((k_t, kp_t)), bank.router_k, bank.lambdas))


class TestSelectLambdas:
    def test_single_factor(self):
        q_t, qp_t, k_t, kp_t, _ = _streams(0, 10, 4)
        bank = make_diff_bank(1, 4, [0.25])
        lam_q, lam_k = _routed_lambdas(q_t, qp_t, k_t, kp_t, bank)
        assert np.array_equal(lam_q, np.full(10, 0.25))
        assert np.array_equal(lam_k, np.full(10, 0.25))

    def test_hand_routing(self):
        # router picks column of larger logit; lambdas distinguish the choice
        pairs = np.array([[1.0, 0.0], [0.0, 1.0]])
        router = Router(np.array([[1.0, 0.0], [0.0, 1.0]]))
        bank = DifferentialBank(
            lambdas=(0.1, 0.9),
            router_q=router, router_k=router, lambda_map_router=router,
        )
        lam_q, lam_k = _routed_lambdas(pairs[:, :1], pairs[:, 1:], pairs[:, :1], pairs[:, 1:], bank)
        assert np.array_equal(lam_q, [0.1, 0.9])
        assert np.array_equal(lam_k, [0.1, 0.9])

    def test_matches_per_token_oracle(self):
        for seed in range(4):
            pairs = mat(seed, 30, 8)
            bank = make_diff_bank(seed + 40, 4, [0.0, 0.01, 0.05, 0.1])
            lam_q, lam_k = _routed_lambdas(pairs[:, :4], pairs[:, 4:], pairs[:, :4], pairs[:, 4:],
                                           bank)
            assert np.array_equal(lam_q, per_token_lambdas(pairs, bank.router_q, bank.lambdas))
            assert np.array_equal(lam_k, per_token_lambdas(pairs, bank.router_k, bank.lambdas))


class TestTdoForward:
    def test_zero_lambda_is_plain_numerator(self):
        q_t, qp_t, k_t, kp_t, v = _streams(1, 16, 6)
        bank = make_diff_bank(2, 6, [0.0])
        out, _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank)
        assert np.array_equal(out, matmul(q_t, matmul(k_t.T, v)))

    def test_identical_streams_lambda_one_cancel(self):
        q_t, _, k_t, _, v = _streams(3, 16, 6)
        bank = make_diff_bank(4, 6, [1.0])
        out, _ = tdo_forward(q_t, q_t, k_t, k_t, v, bank)
        assert np.array_equal(out, np.zeros_like(out))

    @pytest.mark.parametrize("seed", range(5))
    def test_reordering_matches_explicit_map(self, seed):
        q_t, qp_t, k_t, kp_t, v = _streams(seed + 10, 24, 8)
        bank = make_diff_bank(seed + 90, 8, [0.0, 0.01, 0.05, 0.1, 1.0])
        lam_q, lam_k = _oracle_lambdas(q_t, qp_t, k_t, kp_t, bank)
        want = explicit_tdo(q_t, qp_t, k_t, kp_t, v, lam_q, lam_k)
        got, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank)
        assert_close(got, want, 1e-10, "tdo reordering")
        assert list(lambdas) == ["q", "k"]
        assert np.array_equal(lambdas["q"][0], lam_q) and np.array_equal(lambdas["k"][0], lam_k)

    def test_normalized_matches_explicit_map(self):
        q_t, qp_t, k_t, kp_t, v = _streams(20, 20, 6)
        bank = make_diff_bank(21, 6, [0.01, 0.1])
        lam_q, lam_k = _oracle_lambdas(q_t, qp_t, k_t, kp_t, bank)
        want = explicit_tdo(q_t, qp_t, k_t, kp_t, v, lam_q, lam_k, normalize=True)
        got, _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, normalize=True)
        assert_close(got, want, 1e-10, "normalized tdo")

    @pytest.mark.parametrize("normalize", [False, True])
    def test_arguments_keep_their_bytes(self, normalize):
        # the differences are formed in copies of the routed streams; here
        # the streams are head slices of one array, as in a block
        wide = mat(22, 20, 30)
        q_t, qp_t, k_t, kp_t, v = (wide[:, 6 * i : 6 * (i + 1)] for i in range(5))
        bank = make_diff_bank(23, 6, [0.01, 0.1, 0.5])
        before = wide.tobytes()
        lam_q, lam_k = _oracle_lambdas(q_t, qp_t, k_t, kp_t, bank)
        got, _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, normalize=normalize)
        assert wide.tobytes() == before
        want = explicit_tdo(q_t, qp_t, k_t, kp_t, v, lam_q, lam_k, normalize=normalize)
        assert_close(got, want, 1e-10, "tdo on head slices")
        tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, normalize=normalize, variant="map-wise")
        assert wide.tobytes() == before

    def test_lambda_continuity(self):
        # output moves at most linearly for a small lambda perturbation
        q_t, qp_t, k_t, kp_t, v = _streams(30, 24, 8)
        eps = 1e-6
        out = {}
        for shift in (0.0, eps):
            bank = make_diff_bank(31, 8, [0.01 + shift, 0.07 + shift])
            out[shift], _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank)
        scale = max(1.0, float(np.abs(out[0.0]).max()))
        assert np.max(np.abs(out[eps] - out[0.0])) <= 1e3 * eps * scale

    def test_shape_validation(self):
        q_t, qp_t, k_t, kp_t, v = _streams(5, 8, 4)
        bank = make_diff_bank(6, 4, [0.1])
        with pytest.raises(ContractViolation, match="match"):
            tdo_forward(q_t[:4], qp_t, k_t, kp_t, v, bank)
        with pytest.raises(ContractViolation, match="keys"):
            tdo_forward(q_t, qp_t, k_t, kp_t, v[:3], bank)

    def test_unknown_variant_rejected(self):
        q_t, qp_t, k_t, kp_t, v = _streams(7, 8, 4)
        bank = make_diff_bank(8, 4, [0.1, 0.5])
        with pytest.raises(ConfigError, match="'mapwise'"):
            tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, variant="mapwise")


class TestExpansion:
    @pytest.mark.parametrize("seed", range(5))
    def test_four_term_identity(self, seed):
        q_t, qp_t, k_t, kp_t, v = _streams(seed + 40, 20, 6)
        bank = make_diff_bank(seed + 140, 6, [0.0, 0.02, 0.1])
        lam_q, lam_k = _oracle_lambdas(q_t, qp_t, k_t, kp_t, bank)
        t1, t2, t3, t4 = expand_tokenwise(q_t, qp_t, k_t, kp_t, v, lam_q, lam_k)
        got, _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank)
        assert_close(got, t1 - t2 - t3 + t4, 1e-12, "bilinear expansion")

    def test_lambda_vector_validation(self):
        q_t, qp_t, k_t, kp_t, v = _streams(50, 8, 4)
        with pytest.raises(ContractViolation, match="lambda_q"):
            expand_tokenwise(q_t, qp_t, k_t, kp_t, v, np.zeros(3), np.zeros(8))


class TestMapwise:
    def test_zero_lambda_is_shared_attention(self):
        q_t, qp_t, k_t, kp_t, v = _streams(60, 16, 6)
        bank = make_diff_bank(61, 6, [0.0])
        out, _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, variant="map-wise")
        assert np.array_equal(out, matmul(q_t, matmul(k_t.T, v)))

    def test_matches_explicit_map(self):
        for seed in range(4):
            q_t, qp_t, k_t, kp_t, v = _streams(seed + 70, 20, 6)
            bank = make_diff_bank(seed + 170, 6, [0.01, 0.05, 0.1])
            out, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, variant="map-wise")
            assert list(lambdas) == ["map"]
            lam_map = lambdas["map"][0]
            want = explicit_mapwise(q_t, qp_t, k_t, kp_t, v, lam_map)
            assert_close(out, want, 1e-10, "mapwise vs explicit")

    def test_unnormalized_bits_are_the_unfused_combine(self):
        q_t, qp_t, k_t, kp_t, v = _streams(72, 20, 6)
        bank = make_diff_bank(172, 6, [0.01, 0.05, 0.1])
        out, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, variant="map-wise")
        lam_map = lambdas["map"][0]
        shared = matmul(q_t, matmul(k_t.T, v))
        routed = matmul(qp_t, matmul(kp_t.T, v))
        assert np.array_equal(out, shared - lam_map[:, None] * routed)

    @pytest.mark.parametrize("seed", range(3))
    def test_normalized_divides_each_map_by_its_own_denominator(self, seed):
        q_t, qp_t, k_t, kp_t, v = _streams(seed + 74, 20, 6)
        bank = make_diff_bank(seed + 174, 6, [0.01, 0.05, 0.1])
        out, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, normalize=True,
                                   variant="map-wise")
        lam_map = lambdas["map"][0]
        shared = matmul(q_t, matmul(k_t.T, v)) / _denominator(q_t, k_t)
        routed = matmul(qp_t, matmul(kp_t.T, v)) / _denominator(qp_t, kp_t)
        assert np.array_equal(out, shared - lam_map[:, None] * routed)
        want = explicit_mapwise(q_t, qp_t, k_t, kp_t, v, lam_map, normalize=True)
        assert_close(out, want, 1e-10, "normalized mapwise vs explicit")

    def test_normalized_zero_rows_stay_zero(self):
        # a dead query row has a zero numerator in both maps; the floor keeps
        # the denominators at +DENOM_FLOOR, so the row stays exactly zero
        q_t, qp_t, k_t, kp_t, v = _streams(76, 12, 4)
        q_t[3] = qp_t[3] = 0.0
        bank = make_diff_bank(176, 4, [0.1, 0.3])
        out, _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, normalize=True, variant="map-wise")
        assert np.array_equal(out[3], np.zeros(4)) and np.all(np.isfinite(out))

    def test_differs_from_tokenwise_by_cross_terms(self):
        # tdo - mapwise == -t2 - t3 + t4 + lam_map ⊙ q_routed (k_routed^T v)
        q_t, qp_t, k_t, kp_t, v = _streams(80, 20, 6)
        bank = make_diff_bank(81, 6, [0.03, 0.09])
        lam_q, lam_k = _oracle_lambdas(q_t, qp_t, k_t, kp_t, bank)
        tdo, _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank)
        mapw, lambdas = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, variant="map-wise")
        lam_map = lambdas["map"][0]
        _, t2, t3, t4 = expand_tokenwise(q_t, qp_t, k_t, kp_t, v, lam_q, lam_k)
        routed_full = matmul(qp_t, matmul(kp_t.T, v))
        want = -t2 - t3 + t4 + lam_map[:, None] * routed_full
        assert_close(tdo - mapw, want, 1e-12, "token-vs-map reconciliation")


class TestQuerySubset:
    """The key half over every key, then the query half on query rows
    ``sel``, gives those rows of the query half on every query row, bit for
    bit: ``extract_attention_row`` takes one row of a head this way, query
    first.  Keys first, the whole call is ``tdo_forward``'s."""

    @pytest.mark.parametrize("product", ["keys_first", "query_first"])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("variant", ["token-wise", "map-wise"])
    def test_rows_are_those_of_the_whole_call(self, variant, normalize, product):
        q_t, qp_t, k_t, kp_t, v = _streams(90, 24, 6)
        bank = make_diff_bank(91, 6, [0.0, 0.3, 0.7, 1.0])
        keys_v = v if product == "keys_first" else None
        # token-wise forms its differences in the routed streams it is given
        states, _ = _key_half(k_t, kp_t.copy(), bank, variant, keys_v, normalize)
        whole, lam_whole = _query_half(q_t, qp_t.copy(), bank, variant, states)
        if keys_v is not None:
            call, _ = tdo_forward(q_t, qp_t, k_t, kp_t, v, bank, normalize, variant)
            assert np.array_equal(call.view(np.uint64), whole.view(np.uint64))
        query_side = "q" if variant == "token-wise" else "map"
        assert len(set(lam_whole[query_side][0])) > 1  # the rows route apart
        for sel in (slice(7, 8), slice(0, 24, 5), [23, 2, 11]):
            rows, lam_rows = _query_half(q_t[sel], qp_t[sel].copy(), bank, variant, states)
            assert np.array_equal(rows.view(np.uint64), whole[sel].view(np.uint64)), sel
            assert np.array_equal(lam_rows[query_side][0], lam_whole[query_side][0][sel])


class TestDenominatorFloor:
    def test_floor_values(self):
        den = np.array([[0.0], [1e-9], [-1e-9], [2.0], [-3.0]])
        out = _floor_denominator(den)
        assert np.array_equal(
            out, [[DENOM_FLOOR], [DENOM_FLOOR], [-DENOM_FLOOR], [2.0], [-3.0]]
        )

    def test_zero_numerator_rows_stay_zero_when_normalized(self):
        q_t, _, k_t, _, v = _streams(90, 12, 4)
        bank = make_diff_bank(91, 4, [1.0])
        out, _ = tdo_forward(q_t, q_t, k_t, k_t, v, bank, normalize=True)
        assert np.array_equal(out, np.zeros_like(out))


class TestNormalizer:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("shape", [(300, 24), (64, 384), (1, 5)])
    def test_column_sums_ascend_in_every_layout(self, precision, shape):
        # sum(k) goes through matmul: ascending rows from +0, so it keeps the
        # bits of numpy's row-by-row sum on C-ordered k, and of the same loop
        # on an F-ordered k, where numpy's own sum switches to pairwise
        n, d = shape
        k = mat(2, n, d, precision)
        k[::3] *= 1e6  # magnitudes far apart, so a different order shows
        ascending = np.zeros(d, dtype=k.dtype)
        for row in k:
            ascending = ascending + row
        assert np.array_equal(ascending, np.sum(k, axis=0))
        wide = np.zeros((n, 2 * d), dtype=k.dtype)
        wide[:, ::2] = k
        for name, view in [("c_order", k), ("f_order", np.asfortranarray(k)),
                           ("strided", wide[:, ::2])]:
            _, col_sums = _key_state(view, None, normalize=True)
            assert np.array_equal(col_sums, ascending[None, :]), name


class TestBankValidation:
    def test_router_width(self):
        with pytest.raises(ConfigError, match="choices"):
            DifferentialBank(
                lambdas=(0.1, 0.2),
                router_q=Router(np.zeros((8, 3))),
                router_k=Router(np.zeros((8, 2))),
                lambda_map_router=Router(np.zeros((8, 2))),
            )

    def test_concat_width_must_be_even(self):
        with pytest.raises(ConfigError, match="2\\*d"):
            DifferentialBank(
                lambdas=(0.1,),
                router_q=Router(np.zeros((7, 1))),
                router_k=Router(np.zeros((7, 1))),
                lambda_map_router=Router(np.zeros((7, 1))),
            )
