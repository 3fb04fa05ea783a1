"""Exact linear algebra kernel tests."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlie.linalg import (
    SparseMatrix,
    Subspace,
    _IntEchelon,
    canon,
    format_scalar,
    nullspace,
    parse_scalar,
)

F = Fraction


def test_parse_format_round_trip():
    for text in ["0", "3", "-7", "1/2", "-5/3"]:
        assert format_scalar(parse_scalar(text)) == text
    assert parse_scalar("4/2") == F(2)
    with pytest.raises(ValueError):
        parse_scalar("0.5")


def test_nullspace_examples():
    # the kernel comes as its integer echelon; its canonical form is read
    # through subspace()
    assert nullspace(SparseMatrix.identity(3)).subspace().is_zero()
    assert nullspace(SparseMatrix.zero(2, 3)).subspace().is_full()
    ns = nullspace(SparseMatrix.from_rows([[1, 1]]))
    assert ns.dim == 1
    assert ns.contains((1, -1))
    assert ns.subspace().contains((F(1), F(-1)))


@pytest.mark.parametrize("bad", [F(1, 2), F(2), 0.5, 1.0])
def test_int_echelon_refuses_non_integer_entries(bad):
    # int() would truncate: 1/2 read as 0 made (1/2, 0) look like it lay
    # in the span of (1, 1), and (1/2, 1/3) insert nothing
    ech = _IntEchelon.of_rows(2, [(1, 1)])
    with pytest.raises(TypeError):
        ech.contains((bad, 0))
    with pytest.raises(TypeError):
        ech.insert((bad, F(1, 3)))
    with pytest.raises(TypeError):
        _IntEchelon(2).insert((bad, 0))
    assert ech.rows == [[1, 1]] and ech.pivots == [0]
    # numpy integers are integers
    assert ech.contains((np.int64(-3), np.int64(-3)))
    assert not ech.contains((np.int64(1), 0))


def test_intersect_examples():
    e1 = Subspace.from_vectors([(1, 0)], 2)
    e2 = Subspace.from_vectors([(0, 1)], 2)
    assert e1.intersect(e1) == e1
    assert e1.intersect(e2).is_zero()
    a = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3)
    b = Subspace.from_vectors([(0, 1, 0), (0, 0, 1)], 3)
    assert a.intersect(b) == Subspace.from_vectors([(0, 1, 0)], 3)


def test_contains_examples():
    s = Subspace.from_vectors([(1, 2)], 2)
    assert s.contains((0, 0))
    assert s.contains((2, 4))
    assert not s.contains((1, 0))


def test_matrix_serialization_round_trip():
    m = SparseMatrix.from_rows([[F(1, 2), 0], [0, F(-3)]])
    assert SparseMatrix.from_obj(m.to_obj()) == m
    obj = m.to_obj()
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert [0, 0, "1/2"] in obj["entries"]


_small = st.integers(min_value=-5, max_value=5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(_small, min_size=4, max_size=4), min_size=1, max_size=4))
def test_rank_nullity(rows):
    m = SparseMatrix.from_rows(rows)
    rank = Subspace.from_vectors(rows, 4).dim
    assert rank + nullspace(m).dim == m.cols


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(_small, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(_small, min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_modular_dimension_law(arows, brows):
    a = Subspace.from_vectors(arows, 4)
    b = Subspace.from_vectors(brows, 4)
    assert a.intersect(b).dim == a.dim + b.dim - a.sum_with(b).dim


def test_subspace_canonical_equality():
    a = Subspace.from_vectors([(1, 1), (2, 0)], 2)
    b = Subspace.from_vectors([(3, 5), (0, 7)], 2)
    assert a == b and a.is_full()


def test_canon_keeps_ints_and_proper_fractions():
    assert canon(3) == 3 and type(canon(3)) is int
    assert canon(F(4, 2)) == 2 and type(canon(F(4, 2))) is int
    assert canon(F(1, 2)) == F(1, 2) and type(canon(F(1, 2))) is F
    m = SparseMatrix(2, 2, {(0, 0): F(6, 3), (1, 1): F(1, 3)})
    assert [type(m.get(0, 0)), type(m.get(1, 1))] == [int, F]
    assert type(m.scale(3).get(1, 1)) is int
    assert type(m.scale(F(1, 2)).get(0, 0)) is int


@pytest.mark.parametrize("bad", [0.1, 0.0, 2.0, np.float64(0.5), np.int64(1), True,
                                 complex(1, 0), Decimal("0.5"), "1/2"])
def test_sparse_matrix_rejects_inexact_scalars(bad):
    # a float would carry a rounded value into exact arithmetic: 0.1 used
    # to be stored as Fraction(3602879701896397, 36028797018963968)
    with pytest.raises(TypeError):
        canon(bad)
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, {(0, 0): bad})
    with pytest.raises(TypeError):
        SparseMatrix.from_rows([[1, bad]])
    with pytest.raises(TypeError):
        SparseMatrix.identity(1).scale(bad)
    with pytest.raises(TypeError):
        SparseMatrix.identity(1).matvec((bad,))
