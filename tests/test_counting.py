"""Counting formulas against frozen exhaustive tables, anchors, and identities."""

import itertools
import random
import sys
import threading
from math import comb, factorial, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import reference_tables as ref
import sepfam.counting
from sepfam import (
    IdentityCheck,
    bipartition_count,
    ceil_log2,
    check_matrix_count_identity,
    check_stirling_first_sum,
    check_transpose_symmetry,
    check_trivial_split,
    count_min_ground_families,
    count_min_size_families,
    count_separating,
    count_separating_dual,
    distinct_row_matrix_count,
    is_forced_zero,
    min_ground_size,
    min_separating_size,
    stirling1_unsigned,
    stirling2,
    surjective_sequences,
)
from sepfam.counting import _count_family_side, _StirlingRows


def _surjections(k, i):
    # direct enumeration: length-k sequences over i symbols hitting all of them
    if i == 0:
        return 1 if k == 0 else 0
    return sum(
        1 for seq in itertools.product(range(i), repeat=k) if len(set(seq)) == i
    )


def _cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
    return cycles


def test_stirling2_matches_enumeration():
    for k in range(7):
        for i in range(k + 1):
            assert stirling2(k, i) * factorial(i) == _surjections(k, i)


def test_surjective_sequences_matches_enumeration():
    for k in range(6):
        for i in range(5):
            assert surjective_sequences(k, i) == _surjections(k, i)


def test_stirling1_matches_cycle_counts():
    for k in range(7):
        counts = {}
        for perm in itertools.permutations(range(k)):
            c = _cycle_count(perm)
            counts[c] = counts.get(c, 0) + 1
        for i in range(k + 1):
            assert stirling1_unsigned(k, i) == counts.get(i, 0)


def test_stirling_anchors():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling1_unsigned(4, 2) == 11
    assert stirling1_unsigned(5, 3) == 35
    assert stirling1_unsigned(3, 5) == 0
    assert stirling2(5, 0) == 0
    assert surjective_sequences(3, -1) == 0


def _plain_rows(first, top):
    # every row 0..top of a triangle by the textbook recurrence, one at a time
    row = [1]
    yield row
    for k in range(1, top + 1):
        row = [0] + [((k - 1) if first else i) * row[i] + row[i - 1] for i in range(1, k)] + [1]
        yield row


@pytest.mark.parametrize("first", [True, False])
def test_stirling_rows_to_300_match_plain_recurrence(first):
    # asked from the top down, so rows 256..299 are rebuilt from checkpoints
    store = _StirlingRows(first)
    got = {k: store.row(k) for k in range(300, -1, -1)}
    public = stirling1_unsigned if first else stirling2
    assert public(-1, 0) == public(-1, -1) == 0
    for k, want in enumerate(_plain_rows(first, 300)):
        assert got[k] == tuple(want), k
        assert [public(k, i) for i in range(-1, k + 2)] == [0, *want, 0], k


@pytest.mark.parametrize("first", [True, False])
def test_stirling_rows_to_1000_match_plain_recurrence(first):
    store = _StirlingRows(first)
    seen = {}  # hashes, not rows: 200 rows near 1000 would hold ~100 MB

    def ask(k):
        row = store.row(k)
        seen.setdefault(k, hash(row))
        assert seen[k] == hash(row), k
        return row

    # row 1000 walks up from row 0 and leaves checkpoints 263, 271, ..., 999
    ask(1000)
    kept = dict(store._kept)
    assert kept.keys() == {*range(256), *range(263, 1000, 8)}
    # any other row is rebuilt from the checkpoint below it on every read
    assert ask(700) == ask(700)
    for k in (263, 999, 297, 298, 300, 299, 1000):
        ask(k)
    rng = random.Random(20111)
    for k in [rng.randint(0, 1000) for _ in range(200)]:
        ask(k)
    # reads add no row and replace none: rows 0..255 and the 93 checkpoints 263..999
    assert len(store._kept) == 256 + 93 == 349
    assert all(store._kept[r] is row for r, row in kept.items())
    for k, want in enumerate(_plain_rows(first, 1000)):
        if k in seen:
            assert hash(tuple(want)) == seen[k], k


@pytest.mark.parametrize("first", [True, False])
def test_stirling_rows_read_from_many_threads(first):
    # readers race the walk up from row 0 and each other's rebuilds; a kept
    # row is added once and never replaced
    bad = []

    class AddOnly(dict):
        def __setitem__(self, k, row):
            if k in self:
                bad.append(k)
            super().__setitem__(k, row)

    store = _StirlingRows(first)
    store._kept = AddOnly(store._kept)
    want = [tuple(row) for row in _plain_rows(first, 320)]
    asks = list(range(321)) * 2

    def read(seed):
        order = asks[:]
        random.Random(seed).shuffle(order)
        bad.extend(k for k in order if store.row(k) != want[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert bad == []
    assert store._kept.keys() == {*range(256), *range(263, 321, 8)}
    assert store._last == 319


def test_stirling_rows_held_are_bounded():
    stirling1_unsigned(1000, 3)
    stirling2(1000, 3)
    for store in (sepfam.counting._FIRST, sepfam.counting._SECOND):
        assert len(store._kept) <= 256 + -(-744 // 8)


def test_counts_match_frozen_tables():
    for n, row in ref.SEPARATING_COUNTS.items():
        for k, want in row.items():
            assert count_separating(n, k) == want, (n, k)
    for n, row in ref.SEPARATING_COUNTS_PROPER.items():
        for k, want in row.items():
            assert count_separating(n, k, proper=True) == want, (n, k)


def test_dual_matches_frozen_tables():
    for n, row in ref.SEPARATING_COUNTS.items():
        for k, want in row.items():
            assert count_separating_dual(n, k) == want, (n, k)
    for n, row in ref.SEPARATING_COUNTS_PROPER.items():
        for k, want in row.items():
            assert count_separating_dual(n, k, proper=True) == want, (n, k)


def test_anchor_values():
    assert count_separating(2, 1) == 1
    assert count_separating(4, 2) == 3
    assert count_separating(4, 3) == 32
    assert count_separating(5, 3) == 140
    assert count_separating(4, 2, proper=True) == 3
    assert count_separating(4, 3, proper=True) == 29
    assert count_separating_dual(5, 3) == 140


def test_domain_policy():
    assert count_separating(4, 9) == 0  # pool has only 8 members
    assert count_separating(4, 8) == 1  # the whole pool separates
    assert count_separating(4, 8, proper=True) == 0
    assert count_separating(4, 7, proper=True) == 1
    assert count_separating(3, -2) == 0
    assert count_separating_dual(4, 1, proper=True) == 0
    assert count_separating_dual(2, 1) == 1  # the lone two-block partition {1|2}
    assert count_separating_dual(4, 1) == 0
    assert is_forced_zero(4, 9) and is_forced_zero(4, 0)
    assert not is_forced_zero(4, 1)
    assert is_forced_zero(4, 8, proper=True)
    assert not is_forced_zero(4, 7, proper=True) and not is_forced_zero(4, 8)
    assert not is_forced_zero(10**19, 3)  # decided from bit lengths, no 2^(n-1) built
    # at n = 2 the pool is {1,2} and {1|2}: k at and just past each side of it
    assert not is_forced_zero(2, 2) and is_forced_zero(2, 3)
    assert not is_forced_zero(2, 1, proper=True) and is_forced_zero(2, 2, proper=True)
    with pytest.raises(ValueError):
        count_separating(1, 1)
    with pytest.raises(ValueError):
        count_separating_dual(1, 1)
    with pytest.raises(ValueError):
        is_forced_zero(1, 1)


def test_counts_never_negative_on_grid():
    for n in range(2, 9):
        for k in range(-1, 20):
            assert count_separating(n, k) >= 0
            assert count_separating(n, k, proper=True) >= 0


def test_closed_forms_agree_on_grid():
    # count_separating runs the dual sum when k > n - 1, so compare the
    # family-side sum with the ground-side sum directly
    for n in range(2, 9):
        pool = bipartition_count(n)
        for k in range(1, min(pool, 20) + 1):
            assert _count_family_side(n, k) == count_separating_dual(n, k), (n, k)
            a = _count_family_side(n, k, proper=True)
            b = count_separating_dual(n, k, proper=True)
            assert a == b, (n, k)


@st.composite
def shapes(draw):
    n = draw(st.integers(2, 60))
    k = draw(st.one_of(st.integers(1, 200), st.sampled_from((1, n - 1, n, n + 1))))
    return n, k, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shapes())
@example((2, 1, False))
@example((2, 1, True))
@example((3, 2, False))
@example((9, 8, True))
@example((9, 9, False))
@example((60, 61, True))
def test_family_and_ground_sums_agree(shape):
    n, k, proper = shape
    assert _count_family_side(n, k, proper) == count_separating_dual(n, k, proper)


# below this i a term takes math.perm, from it on the shift-and-subtract product
WIDTH = sepfam.counting._SHIFT_WIDTH


@pytest.mark.parametrize("proper", [False, True])
@pytest.mark.parametrize("n", [WIDTH - 1, WIDTH, WIDTH + 1, 300, 1000])
def test_ground_sum_matches_binomial_reference_across_the_width(n, proper):
    for k in (2, 9, 16):
        assert count_separating_dual(n, k, proper) == helpers.naive_ground_sum(n, k, proper), k


@pytest.mark.parametrize("proper", [False, True])
@pytest.mark.parametrize("k", [WIDTH - 1, WIDTH, WIDTH + 1, 200])
def test_family_sum_matches_binomial_reference_across_the_width(k, proper):
    n = k + 2
    assert _count_family_side(n, k, proper) == helpers.naive_family_sum(n, k, proper)


def test_perm_takes_exactly_the_terms_below_the_width(monkeypatch):
    # each side once a term past the width: perm must see 2^i - s for every
    # i below it and for no i from it on
    seen = []

    def spy(x, m):
        seen.append(x)
        return perm(x, m)

    monkeypatch.setattr(sepfam.counting, "perm", spy)
    assert count_separating_dual(WIDTH + 2, 3, proper=True) == helpers.naive_ground_sum(WIDTH + 2, 3, True)
    assert seen == [(1 << i) - 1 for i in range(WIDTH)]
    seen.clear()
    k = WIDTH + 1
    assert _count_family_side(k + 2, k) == helpers.naive_family_sum(k + 2, k)
    assert seen == [(1 << i) - 1 for i in range(WIDTH)]


def test_count_separating_takes_the_shorter_sum(monkeypatch):
    n = 12
    want = {(k, proper): count_separating(n, k, proper)
            for k in (1, n - 1, n, n + 1, 50) for proper in (False, True)}

    def refuse(*args):
        raise AssertionError("count_separating took the longer sum")

    # up to k = n - 1 the family side has at most as many terms as the ground side
    monkeypatch.setattr(sepfam.counting, "_ground_sum", refuse)
    for k in (1, n - 1):
        for proper in (False, True):
            assert count_separating(n, k, proper) == want[k, proper]
    monkeypatch.undo()
    monkeypatch.setattr(sepfam.counting, "_family_sum", refuse)
    for k in (n, n + 1, 50):
        for proper in (False, True):
            assert count_separating(n, k, proper) == want[k, proper]


def test_division_is_exact_by_construction():
    # re-derive the alternating sums and check divisibility by k! directly
    for n in range(2, 8):
        for k in range(1, min(bipartition_count(n), 16) + 1):
            acc = sum(
                (-1) ** (k - i) * stirling1_unsigned(k, i) * comb(2**i - 1, n - 1)
                for i in range(1, k + 1)
            )
            assert factorial(n - 1) * acc % factorial(k) == 0, (n, k)
            acc_p = sum(
                (-1) ** (k - i) * stirling1_unsigned(k + 1, i + 1) * comb(2**i - 1, n - 1)
                for i in range(1, k + 1)
            )
            assert factorial(n - 1) * acc_p % factorial(k) == 0, (n, k)


def test_distinct_row_matrix_count():
    assert distinct_row_matrix_count(4, 2) == 3 * 2 * 1
    assert distinct_row_matrix_count(4, 3) == 7 * 6 * 5
    assert distinct_row_matrix_count(5, 2) == 0  # only 4 distinct rows exist
    assert distinct_row_matrix_count(2, 0) == 0
    with pytest.raises(ValueError):
        distinct_row_matrix_count(4, -1)


def test_distinct_row_matrix_count_is_the_row_product():
    # row j (j = 2..n) is any k-bit row but the j - 1 already used; k = 0 and
    # cells with fewer than n - 1 nonzero rows available come out 0
    for n in range(2, 13):
        for k in range(7):
            want = 1
            for j in range(1, n):
                want *= (1 << k) - j
            assert distinct_row_matrix_count(n, k) == want, (n, k)


def test_matrix_count_identity_examples():
    c = check_matrix_count_identity(4, 2)
    assert c and c.lhs == c.rhs == 6
    c = check_matrix_count_identity(4, 3)
    assert bool(c) and c.rhs == 210


def test_identity_checks_hold_on_grid():
    for n in range(2, 8):
        pool = bipartition_count(n)
        for k in range(1, min(pool, 16) + 1):
            assert check_matrix_count_identity(n, k)
        for k in range(2, min(pool, 16) + 1):
            assert check_trivial_split(n, k)
            assert check_transpose_symmetry(n, k)


def test_transpose_symmetry_compares_two_different_sums(monkeypatch):
    # the two sides are the family-side sums at (n, k-1) and (k, n-1); a fault
    # planted in either one alone must show, on both sides of k = n
    family_sum = sepfam.counting._family_sum

    def refuse(*args):
        raise AssertionError("transpose symmetry took the ground-side sum")

    monkeypatch.setattr(sepfam.counting, "_ground_sum", refuse)
    for n, k in ((4, 3), (3, 4), (6, 9), (9, 6), (12, 40)):
        assert check_transpose_symmetry(n, k)
        for shape in ((n, k - 1), (k, n - 1)):
            monkeypatch.setattr(
                sepfam.counting,
                "_family_sum",
                lambda a, b, p, shape=shape: family_sum(a, b, p) + ((a, b) == shape),
            )
            assert not check_transpose_symmetry(n, k), (n, k, shape)
            monkeypatch.setattr(sepfam.counting, "_family_sum", family_sum)


def test_stirling_first_sum_holds():
    for k in range(13):
        for i in range(k + 1):
            assert check_stirling_first_sum(k, i)
    c = check_stirling_first_sum(3, 1)
    assert c.lhs == 11 == c.rhs  # 1-cycle splits of four elements


def test_stirling_first_sum_sides_match_factorial_quotients():
    # the right side with k!/j! as a quotient of factorials, not a falling factorial
    for k in range(41):
        for i in range(k + 1):
            rhs = sum(factorial(k) // factorial(j) * stirling1_unsigned(j, i) for j in range(i, k + 1))
            assert check_stirling_first_sum(k, i) == (stirling1_unsigned(k + 1, i + 1), rhs), (k, i)


def test_identity_domain_errors():
    with pytest.raises(ValueError, match=r"^k=0 outside 1\.\.8$"):
        check_matrix_count_identity(4, 0)
    with pytest.raises(ValueError, match=r"^k=1 outside 2\.\.8$"):
        check_trivial_split(4, 1)
    with pytest.raises(ValueError, match=r"^k=9 outside 2\.\.8$"):
        check_transpose_symmetry(4, 9)
    with pytest.raises(ValueError, match="n >= 2"):
        check_transpose_symmetry(1, 2)
    with pytest.raises(ValueError):
        check_stirling_first_sum(-1, 0)


def test_identity_check_is_truthy_namedtuple():
    ok = check_trivial_split(4, 3)
    assert ok and ok.lhs == 32 and ok.rhs == 32  # 29 + 3 on one side
    assert isinstance(ok, IdentityCheck)
    assert IdentityCheck._fields == ("lhs", "rhs")
    assert not IdentityCheck(1, 2)


def test_min_separating_size():
    for n, want in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4), (17, 5)]:
        assert min_separating_size(n) == want
    with pytest.raises(ValueError):
        min_separating_size(0)


def test_count_min_size_families_fixtures():
    assert count_min_size_families(2) == 1
    assert count_min_size_families(4) == 3
    assert count_min_size_families(5) == 140
    # the minimum-size count is the separating count at that size
    for n in range(2, 9):
        m = min_separating_size(n)
        assert count_min_size_families(n) == count_separating(n, m)


def test_count_min_size_families_checks_its_division(monkeypatch):
    real = sepfam.counting.factorial
    monkeypatch.setattr(sepfam.counting, "factorial", lambda m: real(m) * 1000003)
    with pytest.raises(ArithmeticError, match="inexact division"):
        count_min_size_families(9)


def test_min_ground_fixtures():
    for k, (size, count) in ref.MIN_GROUND_ARBITRARY.items():
        assert min_ground_size(k) == size
        if k >= 2:
            assert count_min_ground_families(k) == count
    for k, (size, count) in ref.MIN_GROUND_PROPER.items():
        assert min_ground_size(k, proper=True) == size
        assert count_min_ground_families(k, proper=True) == count
    with pytest.raises(ValueError):
        min_ground_size(0)
    assert count_min_ground_families(1) == 1  # the one-block partition of {1}
    with pytest.raises(ValueError):
        count_min_ground_families(0, proper=True)


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_big_values_stay_exact():
    # both closed forms on a cell far past machine-word range
    v = count_separating(12, 20)
    assert v == _count_family_side(12, 20) == count_separating_dual(12, 20)
    assert v > 10**40
    assert _count_family_side(12, 20, proper=True) == count_separating_dual(12, 20, proper=True)
