from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellqg.errors import ResourceCapError, ShapeError
from ellqg.tensorspace import (Composition, DynamicalParams, EvaluationPoints,
                               PartitionIndex, enumerate_partitions, leq, weight_of)


def test_index_from_colors_basics():
    I = PartitionIndex.from_colors((1, 2), 2)
    assert I.parts == ((1,), (2,))
    I = PartitionIndex.from_colors((2, 1, 2), 2)
    assert I.parts == ((2,), (1, 3))


def test_round_trip_fixed():
    for mu in [(1, 1, 2), (3, 1, 2, 2), (2, 2, 2)]:
        N = max(mu)
        assert PartitionIndex.from_colors(mu, N).colors() == mu


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=8))
def test_round_trip_property(mu):
    assert PartitionIndex.from_colors(tuple(mu), 3).colors() == tuple(mu)


def test_partition_validation():
    with pytest.raises(ShapeError):
        PartitionIndex(((1, 2), (2,)))      # overlap
    with pytest.raises(ShapeError):
        PartitionIndex(((1,), (4,)))        # gap
    with pytest.raises(ShapeError):
        PartitionIndex(((2, 1), ()))        # unsorted


def test_leq_reflexive_and_example():
    I = PartitionIndex.from_colors((1, 2), 2)
    J = PartitionIndex.from_colors((2, 1), 2)
    assert leq(I, I)
    assert leq(I, J)
    assert not leq(J, I)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_leq_is_partial_order(n):
    lam = Composition((n - n // 2, n // 2))
    parts = enumerate_partitions(lam)
    for I in parts:
        assert leq(I, I)
    for I, J in product(parts, parts):
        if leq(I, J) and leq(J, I):
            assert I == J
    for I, J, K in product(parts, parts, parts):
        if leq(I, J) and leq(J, K):
            assert leq(I, K)


def test_enumerate_counts():
    assert len(enumerate_partitions(Composition((1, 1)))) == 2
    assert len(enumerate_partitions(Composition((2, 2)))) == 6
    assert len(enumerate_partitions(Composition((1, 1, 1)))) == 6
    for lam in [Composition((2, 1)), Composition((2, 1, 1)), Composition((0, 3))]:
        assert len(enumerate_partitions(lam)) == lam.count()


def test_enumerate_order_is_lex_on_colors():
    parts = enumerate_partitions(Composition((1, 1)))
    assert [p.colors() for p in parts] == [(1, 2), (2, 1)]


def test_enumerate_cap():
    with pytest.raises(ResourceCapError):
        enumerate_partitions(Composition((6, 6)))


def test_weight_of():
    assert weight_of((1, 1, 1), 2) == (3,)
    assert weight_of((1, 2), 2) == (0,)
    assert weight_of((1, 2, 3), 3) == (0, 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=5),
       st.lists(st.integers(1, 3), min_size=1, max_size=5))
def test_weight_additivity(mu1, mu2):
    w1 = weight_of(mu1, 3)
    w2 = weight_of(mu2, 3)
    w = weight_of(tuple(mu1) + tuple(mu2), 3)
    assert w == tuple(a + b for a, b in zip(w1, w2))


def test_shift_identity_and_additivity():
    pd = DynamicalParams((1.0 + 0.5j, 0.7))
    assert pd.shifted((0, 0)) == pd
    assert pd.shifted((1, -2)).shifted((1, -2)) == pd.shifted((2, -4))


def test_shift_moves_value():
    pd = DynamicalParams((1.3 + 0.2j, 0.9))
    assert pd.shifted((2, 0)).value(1, 3) == pd.value(1, 3) + 2


def test_shift_by_colors_matches_weights():
    pd = DynamicalParams((0.4, 1.1))
    mu = (1, 3, 2, 2)
    assert pd.shifted_by_colors(mu).eta == weight_of(mu, 3)


def test_evaluation_points_u():
    q = 0.5
    pts = EvaluationPoints((0.25, 0.5), q)
    assert abs(pts.u[0] - 1.0) < 1e-14
    assert abs(pts.u[1] - 0.5) < 1e-14


def test_evaluation_points_swap_and_invert():
    pts = EvaluationPoints((0.3, 0.5 + 0.1j, 0.9), 0.5)
    swapped = pts.swapped(2)
    assert swapped.z == (0.3, 0.9, 0.5 + 0.1j)
    rev = pts.inverted_reversed()
    assert abs(rev.z[0] - 1.0 / 0.9) < 1e-15


def test_partition_json_round_trip():
    I = PartitionIndex.from_colors((2, 1, 2, 3), 3)
    assert PartitionIndex.from_json(I.to_json()) == I


def test_color_out_of_range_rejected():
    with pytest.raises(ShapeError):
        PartitionIndex.from_colors((1, 4), 3)
