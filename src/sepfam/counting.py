"""Exact counts of separating families and the identities tying them together.

All arithmetic is exact integer arithmetic. Both closed forms, over the
family members and over the ground elements, are one alternating sum of
Stirling numbers of the first kind times falling factorials (2^i - s)_m,
divided once by k! at the very end; that division is checked to leave no
remainder and a nonnegative count. A term below i = _SHIFT_WIDTH (96, the
crossover measured on CPython 3.11) takes math.perm; from there on each
factor is applied as a shift and a subtraction. Counts for k outside the
range where any family can exist are 0 by convention; a ground set smaller
than 2 is an error.

The sums read unsigned Stirling numbers of the first kind one whole row at a
time, row k on the family side and row n on the ground side. Rows of both
kinds are held in bounded memory: with m the highest row asked for so far,
at most 256 + max(0, m - 255) // 8 rows of each kind. After
count_separating_dual(1000, 10) the first-kind rows take 33.1 MB
(tracemalloc, Python 3.11), where a table of every row up to 1000 took
234.2 MB.
"""

from __future__ import annotations

import threading
from math import comb, factorial, perm
from typing import NamedTuple

from .core import bipartition_count


_WHOLE_ROWS = 256  # every row below this is kept
_CHECKPOINT_STEP = 8  # above it, row r is kept when 8 divides r + 1: 255, 263, ...


def _is_kept(r: int) -> bool:
    return r < _WHOLE_ROWS or (r + 1) % _CHECKPOINT_STEP == 0


class _StirlingRows:
    """Rows of one Stirling triangle, each a finished tuple indexed by i.

    Row k of the first kind holds c(k, i) = (k-1) c(k-1, i) + c(k-1, i-1),
    of the second S(k, i) = i S(k-1, i) + S(k-1, i-1). A row that is not
    kept is rebuilt by the recurrence from the checkpoint below it, at most
    7 steps once that checkpoint exists, on every read. Rows are only ever
    added, under a lock and only when finished, so a reader in any thread
    sees whole rows.
    """

    def __init__(self, first: bool) -> None:
        self._first = first
        self._kept: dict[int, tuple[int, ...]] = {0: (1,)}
        self._last = 0  # highest kept row; every kept row below it exists
        self._lock = threading.Lock()

    def row(self, k: int) -> tuple[int, ...]:
        """Row k (k >= 0), entries 0..k."""
        row = self._kept.get(k)
        if row is None:
            with self._lock:
                row = self._kept.get(k) or self._build(k)
        return row

    def _build(self, k: int) -> tuple[int, ...]:
        # below the highest kept row, k lies between two checkpoints: start
        # from the lower one; above it, walk up keeping each row due
        r = k - (k + 1) % _CHECKPOINT_STEP if k < self._last else self._last
        row = self._kept[r]
        while r < k:
            r += 1
            row = self._next(row, r)
            if _is_kept(r):
                self._kept[r] = row
                self._last = r
        return row

    def _next(self, prev: tuple[int, ...], r: int) -> tuple[int, ...]:
        # row r from row r - 1; entry 0 is 0 and entry r is 1 for r >= 1
        if self._first:
            mid = [(r - 1) * a + b for a, b in zip(prev[1:], prev)]
        else:
            mid = [i * a + b for i, a, b in zip(range(1, r), prev[1:], prev)]
        return (0, *mid, 1)


_FIRST = _StirlingRows(first=True)
_SECOND = _StirlingRows(first=False)


def stirling2(k: int, i: int) -> int:
    """Partitions of a k-set into i nonempty blocks; 0 outside the triangle."""
    if k < 0 or i < 0 or i > k:
        return 0
    return _SECOND.row(k)[i]


def stirling1_unsigned(k: int, i: int) -> int:
    """Permutations of k elements with exactly i cycles; 0 outside the triangle."""
    if k < 0 or i < 0 or i > k:
        return 0
    return _FIRST.row(k)[i]


def surjective_sequences(k: int, i: int) -> int:
    """Length-k sequences over i symbols using every symbol at least once."""
    if i < 0:
        return 0
    return factorial(i) * stirling2(k, i)


def _require_ground(n: int) -> None:
    if n < 2:
        raise ValueError(f"counting needs a ground set with n >= 2 (got n={n})")


def is_forced_zero(n: int, k: int, proper: bool = False) -> bool:
    """True when no family of k distinct bipartitions can exist at all.

    That happens for k < 1 and for k larger than the pool of available
    bipartitions (2^(n-1), or one less for proper only); the count is 0
    there without consulting any formula. The pool is built only when k has
    at least the pool's n bits, so a huge n costs nothing.
    """
    _require_ground(n)
    return k < 1 or (k.bit_length() > n - 1 and k > bipartition_count(n, proper=proper))


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    # sizes in bits, not values: an error message must not pass the 4300-digit limit
    if r:
        raise ArithmeticError(
            f"inexact division: a {num.bit_length()}-bit dividend is not a multiple "
            f"of a {den.bit_length()}-bit divisor"
        )
    if q < 0:
        raise ArithmeticError(f"count came out negative ({q.bit_length()} bits)")
    return q


def count_separating(n: int, k: int, proper: bool = False) -> int:
    """Separating families of k distinct bipartitions of {1..n}, exactly.

    With proper=True only two-block bipartitions may be used. The count is
    one alternating sum that can be read over the k family members or over
    the n ground elements; this evaluates the one with fewer terms: the
    ground-side sum of count_separating_dual when k > n - 1, the family-side
    sum otherwise.
    """
    if is_forced_zero(n, k, proper):
        return 0
    if k > n - 1:
        return _ground_sum(n, k, proper)
    return _family_sum(n, k, proper)


def _count_family_side(n: int, k: int, proper: bool = False) -> int:
    """count_separating by the family-side sum whatever the shape, for cross-checks."""
    if is_forced_zero(n, k, proper):
        return 0
    return _family_sum(n, k, proper)


def _family_sum(n: int, k: int, proper: bool) -> int:
    # k terms, over the number of distinct rows a characteristic matrix can
    # have; (n-1)! comb(2^i - 1, n - 1) is the falling factorial (2^i - 1)_(n-1),
    # and proper reads c(k+1, i+1) for c(k, i). The i = 0 term is 0 (n >= 2)
    shift = int(proper)
    acc = _falling_sum(_FIRST.row(k + shift)[shift:], 1, n - 1)
    return _exact_div(acc, factorial(k))


def count_separating_dual(n: int, k: int, proper: bool = False) -> int:
    """The same counts by the transposed closed form, the ground-side sum.

    Sums n terms over the ground-set side instead of k over the family side:
    the same alternating falling-factorial sum, read over Stirling row n, and
    divided once by k! with the division checked. Defined for every k, k = 1
    included.
    """
    if is_forced_zero(n, k, proper):
        return 0
    return _ground_sum(n, k, proper)


def _ground_sum(n: int, k: int, proper: bool) -> int:
    # n terms, over the number of distinct columns; k! comb(top, k) is the
    # falling factorial (top)_k. The i = 0 term is nonzero only for one
    # arbitrary bipartition (k = 1)
    acc = _falling_sum(_FIRST.row(n)[1:], int(proper), k)
    return _exact_div(acc, factorial(k))


# From this i on, a term is built by shifts: (2^i - t) a = (a << i) - t a is a
# shift and a multiply by a small int, where math.perm multiplies i-bit
# factors. Measured on CPython 3.11.7 (2-core x86-64 VM), one term c (2^i - 1)_m
# with c of 64 to 8000 bits: perm is faster at every m below i = 64, shifts
# are faster from i = 96-128 at m <= 16 and from i = 192 at m = 200. Over the
# requests of the count benchmark, widths 96 and 128 tie and 48, 192 and 256
# are 3-10% slower.
_SHIFT_WIDTH = 96


def _falling_sum(c: tuple[int, ...], s: int, m: int) -> int:
    """Sum over i = 0..hi of (-1)^(hi-i) c[i] (2^i - s)_m, where hi = len(c) - 1
    and (x)_m = x (x-1) ... (x-m+1) is the falling factorial."""
    hi = len(c) - 1
    acc = 0
    for i, term in enumerate(c):
        if i < _SHIFT_WIDTH:
            term *= perm((1 << i) - s, m)
        else:
            for t in range(s, s + m):
                term = (term << i) - term * t
        if (hi - i) & 1:
            acc -= term
        else:
            acc += term
    return acc


_CHUNK_DIGITS = 4000  # below Python's default 4300-digit int-to-str limit
_CHUNK = 10**_CHUNK_DIGITS


def decimal_text(value: int) -> str:
    """Exact decimal text of an int of any size.

    str() refuses ints over 4300 digits; splitting off 4000-digit chunks with
    divmod avoids that without touching the process-wide limit.
    """
    if value < 0:
        return "-" + decimal_text(-value)
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    return str(value) + "".join(reversed(chunks))


class IdentityCheck(NamedTuple):
    """Both sides of an identity; truthy iff they agree."""

    lhs: int
    rhs: int

    def __bool__(self) -> bool:
        return self.lhs == self.rhs


def distinct_row_matrix_count(n: int, k: int) -> int:
    """n x k 0/1 matrices with zero first row and pairwise-distinct rows."""
    _require_ground(n)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return perm((1 << k) - 1, n - 1)


def _require_identity_size(n: int, k: int, lo: int) -> None:
    _require_ground(n)
    pool = bipartition_count(n)
    if not lo <= k <= pool:
        raise ValueError(f"k={k} outside {lo}..{pool}")


def check_matrix_count_identity(n: int, k: int) -> IdentityCheck:
    """Families resummed by distinct-member count vs the distinct-row matrix count."""
    _require_identity_size(n, k, 1)
    # surjective_sequences(k, i) = i! S(k, i), with Stirling row k read once
    s2 = _SECOND.row(k)
    lhs = sum(factorial(i) * s2[i] * count_separating(n, i) for i in range(1, k + 1))
    rhs = distinct_row_matrix_count(n, k)
    return IdentityCheck(lhs, rhs)


def check_trivial_split(n: int, k: int) -> IdentityCheck:
    """Proper counts at sizes k and k-1 must add up to the arbitrary count at k.

    Splitting the size-k families by whether they contain the one-block
    partition gives exactly that recurrence.
    """
    _require_identity_size(n, k, 2)
    lhs = count_separating(n, k, proper=True) + count_separating(n, k - 1, proper=True)
    rhs = count_separating(n, k)
    return IdentityCheck(lhs, rhs)


def check_stirling_first_sum(k: int, i: int) -> IdentityCheck:
    """c(k+1, i+1) = sum over j of (k!/j!) c(j, i), in exact integers."""
    if k < 0 or i < 0:
        raise ValueError("indices must be nonnegative")
    lhs = stirling1_unsigned(k + 1, i + 1)
    rhs = sum(perm(k, k - j) * stirling1_unsigned(j, i) for j in range(i, k + 1))
    return IdentityCheck(lhs, rhs)


def check_transpose_symmetry(n: int, k: int) -> IdentityCheck:
    """Matrices with zero first row and column, counted from either side.

    Both sides take the family-side sum, one over Stirling row k and one over
    row n, so for k != n they are two different computations; count_separating
    would read one of them in the other orientation, which is the same sum.
    """
    _require_identity_size(n, k, 2)
    lhs = _count_family_side(n, k - 1, proper=True) * factorial(k - 1)
    rhs = _count_family_side(k, n - 1, proper=True) * factorial(n - 1)
    return IdentityCheck(lhs, rhs)


def ceil_log2(x: int) -> int:
    """Smallest m with 2^m >= x, for x >= 1."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return (x - 1).bit_length()


def min_separating_size(n: int) -> int:
    """Smallest size a separating family over {1..n} can have."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return ceil_log2(n)


def count_min_size_families(n: int) -> int:
    """Number of separating families of that smallest size.

    At the minimum size every separating family is automatically minimal
    and contains no one-block member, so one count serves all three reads.
    """
    _require_ground(n)
    m = min_separating_size(n)
    return _exact_div(distinct_row_matrix_count(n, m), factorial(m))


def min_ground_size(k: int, proper: bool = False) -> int:
    """Smallest n admitting a separating family of k bipartitions of {1..n}."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return ceil_log2(k + 1 if proper else k) + 1


def count_min_ground_families(k: int, proper: bool = False) -> int:
    """Separating k-families over that smallest ground set.

    With arbitrary bipartitions and k = 1 the ground set is {1}, where the
    lone one-block bipartition separates: comb(1, 1) = 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if proper:
        m = ceil_log2(k + 1)
        return comb((1 << m) - 1, k)
    m = ceil_log2(k)
    return comb(1 << m, k)
