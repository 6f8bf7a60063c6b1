import numpy as np
import pytest

from dydila.numerics import ContractViolation, ConfigError, SeededRng
from dydila.oracle import explicit_routes
from dydila.routing import RouteAssignment, Router, route_argmax, route_pair

from conftest import bits, logits_of, make_router, mat, spy_logits


def test_hand_example():
    tokens = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float64)
    router = Router(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]], dtype=np.float64))
    routes = route_argmax(tokens, router)
    assert routes.indices.tolist() == [0, 2]
    assert routes.n_choices == 3


def test_tie_breaks_to_smallest_index():
    tokens = np.array([[1.0, 1.0]], dtype=np.float64)
    router = Router(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.float64))  # both logits equal
    assert route_argmax(tokens, router).indices.tolist() == [0]


def test_zero_token_routes_to_zero():
    routes = route_argmax(np.zeros((3, 4)), make_router(0, 4, 5))
    assert routes.indices.tolist() == [0, 0, 0]


def test_matches_per_token_oracle():
    for seed in range(5):
        tokens = mat(seed, 40, 8)
        router = make_router(seed + 50, 8, 7)
        assert np.array_equal(route_argmax(tokens, router).indices,
                              explicit_routes(tokens, router))


def test_permutation_equivariance():
    tokens = mat(1, 64, 8)
    router = make_router(2, 8, 9)
    base = route_argmax(tokens, router).indices
    gen = np.random.Generator(np.random.PCG64(3))
    for _ in range(10):
        perm = gen.permutation(64)
        assert np.array_equal(route_argmax(tokens[perm], router).indices, base[perm])


def test_row_locality():
    # a token's route depends only on its own row
    tokens = mat(4, 16, 6)
    router = make_router(5, 6, 4)
    base = route_argmax(tokens, router).indices
    poked = tokens.copy()
    poked[3] = 100.0
    after = route_argmax(poked, router).indices
    mask = np.arange(16) != 3
    assert np.array_equal(after[mask], base[mask])


def test_positive_scale_invariance():
    tokens = mat(6, 32, 5)
    weights = SeededRng(7).init_weight(5, 6)
    base = route_argmax(tokens, Router(weights)).indices
    for c in (0.5, 2.0, 4.0, 3.0):
        assert np.array_equal(route_argmax(tokens, Router(weights * c)).indices, base)


def test_counts_and_most_frequent():
    routes = RouteAssignment(
        indices=np.array([0, 2, 2, 1, 2], dtype=np.int64),
        n_choices=4,
    )
    assert routes.counts().tolist() == [1, 1, 3, 0]
    assert routes.most_frequent() == 2


def test_dim_mismatch():
    with pytest.raises(ContractViolation, match="dim mismatch"):
        route_argmax(mat(0, 4, 3), make_router(0, 5, 2))


def test_router_needs_choices():
    with pytest.raises(ConfigError, match="at least one choice"):
        Router(np.zeros((4, 0)))


def test_assignment_shape_validation():
    with pytest.raises(ContractViolation):
        RouteAssignment(indices=np.zeros((3, 2), dtype=np.int64), n_choices=2)


@pytest.mark.parametrize("backend", ["c", "numpy"], indirect=True)
@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_route_pair_matches_concatenated_routing(monkeypatch, backend, precision):
    # the pair's logits resume the sum over a's half with b's half: the bits
    # of routing the concatenation, for head slices too
    log = spy_logits(monkeypatch)
    wide_a, wide_b = mat(1, 70, 40, precision), mat(2, 70, 40, precision)
    for n_choices in (1, 9, 40):
        router = make_router(n_choices, 48, n_choices, precision)
        for a, b in ((wide_a[:, :24], wide_b[:, 16:]), (wide_a[:, 3:27].copy(), wide_b[:, :24])):
            want = route_argmax(np.hstack((a, b)), router)
            got = route_pair(a, b, router)
            assert np.array_equal(bits(logits_of(log, got)), bits(logits_of(log, want))), n_choices
            assert np.array_equal(got.indices, want.indices), n_choices


def test_route_pair_dim_mismatch():
    router = make_router(0, 8, 3)
    with pytest.raises(ContractViolation, match="dim mismatch"):
        route_pair(mat(0, 5, 4), mat(1, 5, 3), router)
    with pytest.raises(ContractViolation, match="dim mismatch"):
        route_pair(mat(0, 5, 3), mat(1, 5, 3), router)
