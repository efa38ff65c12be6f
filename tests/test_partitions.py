import pytest
from hypothesis import given, strategies as st

from gysin.errors import InvalidPartition
from gysin.partitions import (
    Partition,
    decompose,
    enumerate_ssyt,
    partitions_of_weight,
    partitions_up_to_weight,
    rho,
)


@st.composite
def partitions(draw, max_parts=5, max_part=6):
    k = draw(st.integers(0, max_parts))
    parts = sorted(
        draw(st.lists(st.integers(0, max_part), min_size=k, max_size=k)), reverse=True
    )
    return Partition(parts)


# -- Partition basics ----------------------------------------------------

def test_trailing_zeros_are_normalized():
    assert Partition([3, 2, 0, 0]) == Partition([3, 2])
    assert Partition([0, 0]) == Partition()


def test_not_weakly_decreasing_rejected():
    with pytest.raises(InvalidPartition):
        Partition([1, 3])
    with pytest.raises(InvalidPartition):
        Partition([2, -1])


def test_weight_and_length():
    lam = Partition([4, 3, 1])
    assert lam.weight == 8
    assert lam.length == 3
    assert lam.part(0) == 4 and lam.part(5) == 0
    assert lam.padded(5) == (4, 3, 1, 0, 0)


def test_text_roundtrip():
    assert Partition.from_text("4,3,1") == Partition([4, 3, 1])
    assert Partition.from_text("0") == Partition()
    assert Partition([4, 3, 1]).to_text() == "4,3,1"
    assert Partition().to_text() == "0"
    with pytest.raises(InvalidPartition):
        Partition.from_text("1,3")
    with pytest.raises(InvalidPartition):
        Partition.from_text("a,b")


# -- rho ------------------------------------------------------------------

def test_rho():
    assert rho(3) == Partition([3, 2, 1])
    assert rho(1) == Partition([1])
    assert rho(0) == Partition()


# -- decompose -------------------------------------------------------------

def test_decompose_examples():
    assert decompose(Partition([4, 1]), 2, Partition([2, 1])) == Partition([1])
    assert decompose(Partition([2, 2]), 2, Partition([2, 1])) is None
    assert decompose(Partition([2, 1]), 2, Partition([2, 1])) == Partition()


def test_decompose_rejects_long_partition():
    with pytest.raises(InvalidPartition):
        decompose(Partition([1, 1, 1]), 2, rho(2))


def test_decompose_negative_difference():
    assert decompose(Partition([1]), 2, rho(2)) is None


@given(partitions(max_parts=4, max_part=5), st.integers(1, 5))
def test_decompose_reconstructs(mu, n):
    if mu.length > n:
        return
    staircase = rho(n)
    lam = Partition(
        [2 * m + s for m, s in zip(mu.padded(n), staircase.padded(n))]
    )
    back = decompose(lam, n, staircase)
    assert back == mu
    assert all(
        l == 2 * m + s
        for l, m, s in zip(lam.padded(n), back.padded(n), staircase.padded(n))
    )


# -- conjugate ---------------------------------------------------------------

def test_conjugate_examples():
    assert Partition([2, 1]).conjugate() == Partition([2, 1])
    assert Partition([3]).conjugate() == Partition([1, 1, 1])
    assert Partition().conjugate() == Partition()


@given(partitions())
def test_conjugate_is_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().weight == lam.weight


# -- tableaux -----------------------------------------------------------------

def test_ssyt_single_box():
    tableaux = enumerate_ssyt(Partition([1]), 2)
    assert [t.rows for t in tableaux] == [((1,),), ((2,),)]


def test_ssyt_hook_2_1():
    tableaux = enumerate_ssyt(Partition([2, 1]), 2)
    assert {t.rows for t in tableaux} == {((1, 1), (2,)), ((1, 2), (2,))}


def test_ssyt_column_too_tall():
    assert enumerate_ssyt(Partition([1, 1, 1]), 2) == []


def test_ssyt_all_semistandard():
    for tableau in enumerate_ssyt(Partition([3, 2]), 3):
        assert tableau.is_semistandard(3)


def test_ssyt_content_sums_to_weight():
    for tableau in enumerate_ssyt(Partition([2, 2]), 3):
        assert sum(tableau.content(3)) == 4


# -- partition generators -------------------------------------------------------

def test_partitions_of_weight():
    got = [p.parts for p in partitions_of_weight(4, 2)]
    assert got == [(4,), (3, 1), (2, 2)]


def test_partitions_up_to_weight_counts():
    # number of partitions of w into at most 3 parts, summed over w <= 5
    assert len(list(partitions_up_to_weight(3, 5))) == 1 + 1 + 2 + 3 + 4 + 5
