"""Characteristic matrices: worked fixtures, roundtrips, the distinct-rows law."""

import itertools

import pytest

import helpers
from sepfam import (
    Bipartition,
    BipartitionFamily,
    CharMatrix,
    all_bipartitions,
    encode_family,
)


def test_single_column_fixtures(ex):
    # column i of one member: 1 where the member cuts element i from element 1
    for p, col in [(ex.p1, [0, 0, 1, 1]), (ex.p2, [0, 1, 0, 1]), (ex.q1, [0, 1, 1, 1]),
                   (Bipartition(4), [0, 0, 0, 0])]:
        assert CharMatrix.encode(4, (p,)) == CharMatrix.from_rows([[bit] for bit in col])


def test_encode_worked_examples(ex):
    m = CharMatrix.encode(4, (ex.p1, ex.p2))
    assert (m.n, m.k) == (4, 2)
    assert m == CharMatrix.from_rows([[0, 0], [0, 1], [1, 0], [1, 1]])
    mq = CharMatrix.encode(4, (ex.q1, ex.q2, ex.q3))
    assert mq == CharMatrix.from_rows([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert m.has_distinct_rows() and mq.has_distinct_rows()


def test_columns_cut_element_1_away():
    # entry (i, j) is 1 exactly when member j cuts elements 1 and i
    pool = all_bipartitions(4)
    for members in itertools.product(pool, repeat=2):
        m = CharMatrix.encode(4, members)
        for i, row in enumerate(m.rows, 1):
            for j, p in enumerate(members):
                assert row >> j & 1 == helpers.naive_cuts(helpers.to_naive(p), 1, i)


def test_encode_keeps_order_and_repeats(ex):
    m = CharMatrix.encode(4, (ex.p1, ex.p2, ex.p1))
    assert m.k == 3
    assert m.decode() == (ex.p1, ex.p2, ex.p1)
    assert BipartitionFamily(4, m.decode()) == ex.fp
    with pytest.raises(ValueError, match="member over n=4"):
        CharMatrix.encode(3, (ex.p1,))


def test_first_row_zero_enforced():
    with pytest.raises(ValueError):
        CharMatrix.from_rows([[1], [0]])
    with pytest.raises(ValueError):
        CharMatrix(2, 1, (1, 0))


def test_from_rows_validation():
    with pytest.raises(ValueError):
        CharMatrix.from_rows([])
    with pytest.raises(ValueError):
        CharMatrix.from_rows([[0, 0], [1]])
    with pytest.raises(ValueError):
        CharMatrix.from_rows([[0], [2]])
    with pytest.raises(ValueError):
        CharMatrix(2, 1, (0,))  # row count != n


def test_encode_decode_inverse_exhaustive():
    for n in (2, 3):
        pool = all_bipartitions(n)
        for k in range(4):
            for entries in itertools.product(pool, repeat=k):
                assert CharMatrix.encode(n, entries).decode() == entries
    for entries in itertools.product(all_bipartitions(4), repeat=2):
        assert CharMatrix.encode(4, entries).decode() == entries


def test_decode_encode_inverse_exhaustive():
    # every valid 3 x k matrix for k <= 3 comes back unchanged
    for k in range(4):
        for masks in itertools.product(range(1 << k), repeat=2):
            m = CharMatrix(3, k, (0, *masks))
            assert CharMatrix.encode(3, m.decode()) == m


def test_empty_tuple_encodes_to_zero_width_matrix():
    m = CharMatrix.encode(3, ())
    assert (m.n, m.k) == (3, 0)
    assert m.decode() == ()
    assert not m.has_distinct_rows()  # three equal empty rows


def test_distinct_rows_iff_separating():
    for n in (2, 3, 4):
        pool = all_bipartitions(n)
        for r in range(4):
            for combo in itertools.combinations(pool, r):
                fam = BipartitionFamily(n, combo)
                assert encode_family(fam).has_distinct_rows() == fam.is_separating()


def test_transpose_dual_fixture(ex):
    mt = CharMatrix.encode(4, (Bipartition(4), ex.p1, ex.p2)).transpose_dual()
    assert (mt.n, mt.k) == (3, 4)
    assert mt == CharMatrix.from_rows([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]])
    # its columns are four bipartitions of a 3-set
    assert [b.coblock for b in mt.decode()] == [0b000, 0b100, 0b010, 0b110]


def test_transpose_requires_zero_first_column(ex):
    m = CharMatrix.encode(4, (ex.p1, ex.p2))
    with pytest.raises(ValueError):
        m.transpose_dual()
    with pytest.raises(ValueError):
        CharMatrix(3, 0, (0, 0, 0)).transpose_dual()  # no first column at all


def test_transpose_is_involution():
    # every valid 3 x 2 matrix whose first column is zero
    for a, b in itertools.product((0, 2), repeat=2):
        m = CharMatrix(3, 2, (0, a, b))
        assert m.transpose_dual().transpose_dual() == m
